// Command compare sets two groups of benchmark runs side by side: for every
// workload and end-to-end metric, the median of each side, the change as a
// share of side A's median, the metric's bound from BENCHMARK.json, and a
// verdict.
//
//	go run ./compare A.json B.json
//	go run ./compare A1.json A2.json A3.json -- B1.json B2.json B3.json
//
// Inputs are the files the benchmark writes with --out. With two files they
// are A and B; with more, "--" separates the sides. It exits 1 when any
// metric regressed. It is the tool for the A/A acceptance check (two groups
// of runs of the same code must come out all "ok") and for before/after
// tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"rankcube/benchmark/report"
	"rankcube/benchmark/stat"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts. Unresolved means the runs cannot tell: the spread within a side
// is wider than the bound and the two sides' runs interleave, so neither
// "unchanged" nor "regressed" may be claimed.
const (
	ok         = "ok"
	regressed  = "regressed"
	unresolved = "unresolved"
)

func main() {
	benchFile := flag.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json holding the metrics' bounds")
	flag.Parse()
	a, b, err := split(flag.Args())
	if err == nil {
		var bounds []bound
		if bounds, err = readBounds(*benchFile); err == nil {
			var bad bool
			if bad, err = compare(a, b, bounds); err == nil && bad {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
}

// split divides the arguments into the two sides.
func split(args []string) (a, b []string, err error) {
	for i, arg := range args {
		if arg == "--" {
			a, b = args[:i], args[i+1:]
		}
	}
	if a == nil && len(args) == 2 {
		a, b = args[:1], args[1:]
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, fmt.Errorf("usage: compare A.json B.json | compare A1.json A2.json … -- B1.json B2.json …")
	}
	return a, b, nil
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// values maps workload → metric → one value per run.
type values map[string]map[string][]float64

// load gathers the end-to-end results of every file of one side.
func load(paths []string) (values, error) {
	out := make(values)
	for _, p := range paths {
		f, err := report.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for _, r := range f.Results {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

func compare(aPaths, bPaths []string, bounds []bound) (bad bool, err error) {
	a, err := load(aPaths)
	if err != nil {
		return false, err
	}
	b, err := load(bPaths)
	if err != nil {
		return false, err
	}
	workloads := make([]string, 0, len(a))
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Printf("%-13s %-22s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, bd := range bounds {
			av, bv := a[w][bd.Name], b[w][bd.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, bd)
			fmt.Printf("%-13s %-22s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w, bd.Name, v.medianA, v.medianB, v.worse*100, v.spread*100, bd.Bound*100, v.verdict)
			bad = bad || v.verdict == regressed
		}
	}
	return bad, nil
}

type judgement struct {
	medianA, medianB float64
	// worse is how much worse B's median is than A's, as a share of A's
	// (negative: better). spread is the wider of the two sides'
	// interquartile ranges, as a share of A's median.
	worse, spread float64
	verdict       string
}

// judge applies the rule of the choosing-metrics guide: B may be worse than A
// by at most the bound; where the run-to-run spread is wider than the bound
// the metric is unresolved, not unchanged — unless the sides do not overlap
// at all, in which case the direction is plain whatever the spread.
func judge(a, b []float64, bd bound) judgement {
	sign := 1.0 // lower is better: growing is worse
	if bd.Better == "higher" {
		sign = -1
	}
	j := judgement{medianA: stat.Median(a), medianB: stat.Median(b)}
	j.worse = sign * (j.medianB - j.medianA) / j.medianA
	j.spread = iqr(a)
	if s := iqr(b); s > j.spread {
		j.spread = s
	}
	j.spread /= j.medianA

	as, bs := stat.Sorted(a), stat.Sorted(b)
	apart := as[len(as)-1] < bs[0] || bs[len(bs)-1] < as[0]
	switch {
	case j.spread > bd.Bound && !apart:
		j.verdict = unresolved
	case j.worse > bd.Bound:
		j.verdict = regressed
	default:
		j.verdict = ok
	}
	return j
}

func iqr(v []float64) float64 {
	q1, q3 := stat.Quartiles(v)
	return q3 - q1
}
