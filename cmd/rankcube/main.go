// Command rankcube is a small interactive demo of the ranking-cube engines:
// it loads a relation from CSV (or generates one), materializes a signature
// ranking cube, and answers top-k and skyline queries typed at a prompt.
//
// Usage:
//
//	rankcube -gen 100000            # synthetic relation
//	rankcube -csv data.csv -sel 3   # first 3 columns selections, rest ranking
//
// Query language (one per line):
//
//	top K [dim=val ...] by SPEC     # SPEC: w1*N1+w2*N2…  or  dist:t1,t2,…
//	sky [dim=val ...] on d1,d2
//	trace <top …|sky …>             # run a query and print its span tree
//	slow                            # dump the slow-query log
//	stats                           # dump the process metrics registry
//	health                          # store lifecycle states and gate occupancy
//	repair                          # verify, rebuild, re-admit quarantined stores
//	help | quit
//
// With -max-inflight N (and optionally -max-queue M), an admission gate
// bounds concurrent serving; the process drains the gate before exiting.
//
// With -slowlog <dur>, queries at or above the threshold are kept in a ring
// buffer with their execution span trees; "slow" prints them.
//
// Example:
//
//	top 5 0=2 1=0 by 1.0*N1+2.5*N2
//	top 10 2=1 by dist:0.3,0.7
//	sky 0=1 on 0,1
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"

	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rankcube"
)

func main() {
	var (
		gen     = flag.Int("gen", 0, "generate a synthetic relation with this many rows")
		csvIn   = flag.String("csv", "", "load a relation from this CSV file (header row required)")
		selN    = flag.Int("sel", 2, "number of leading CSV columns treated as selection dimensions")
		seed    = flag.Int64("seed", 1, "generator seed")
		selDim  = flag.Int("seldims", 3, "selection dimensions for -gen")
		rnkDim  = flag.Int("rankdims", 2, "ranking dimensions for -gen")
		card    = flag.Int("card", 10, "selection cardinality for -gen")
		slowlog = flag.Duration("slowlog", 0, "record queries at or above this duration in the slow-query log (0 = off)")

		maxInflight = flag.Int("max-inflight", 0, "admission gate: max concurrently served queries (0 = ungated)")
		maxQueue    = flag.Int("max-queue", 0, "admission gate: max queries parked waiting for a slot")
	)
	flag.Parse()
	if *slowlog > 0 {
		rankcube.SetSlowQueryThreshold(*slowlog)
	}

	var rel *rankcube.Relation
	var err error
	switch {
	case *csvIn != "":
		rel, err = loadCSV(*csvIn, *selN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rankcube: %v\n", err)
			os.Exit(1)
		}
	case *gen > 0:
		rel = rankcube.GenerateRelation(*gen, *selDim, *rnkDim, *card, rankcube.Uniform, *seed)
	default:
		rel = rankcube.GenerateRelation(50000, *selDim, *rnkDim, *card, rankcube.Uniform, *seed)
	}

	schema := rel.Schema()
	fmt.Printf("relation: %d tuples, selections %v (cards %v), rankings %v\n",
		rel.Len(), schema.SelNames, schema.SelCard, schema.RankNames)
	fmt.Print("building signature ranking cube… ")
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	eng := rankcube.NewSkylineEngine(cube)
	fmt.Printf("done (%.1f MB of signatures)\n", float64(cube.SizeBytes())/(1<<20))
	if *maxInflight > 0 {
		cube.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: *maxInflight, MaxWaiting: *maxQueue})
		fmt.Printf("admission gate: %d in flight, %d waiting\n", *maxInflight, *maxQueue)
	}
	// Drain on exit: refuse new queries and wait (briefly) for in-flight
	// ones so the process never dies mid-answer.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cube.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "rankcube: drain: %v\n", err)
		}
	}()
	fmt.Println(`type "help" for the query syntax`)

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == "quit" || line == "exit":
			return
		case line == "help":
			fmt.Println("  top K [dim=val ...] by w1*N1+w2*N2  — weighted top-k")
			fmt.Println("  top K [dim=val ...] by dist:t1,t2   — nearest to target")
			fmt.Println("  sky [dim=val ...] on d1,d2          — skyline over dims")
			fmt.Println("  trace <query>                       — run a query, print its span tree")
			fmt.Println("  slow                                — dump the slow-query log")
			fmt.Println("  stats                               — dump the metrics registry")
			fmt.Println("  health                              — store lifecycle states and gate occupancy")
			fmt.Println("  repair                              — verify, rebuild, and re-admit quarantined stores")
		case line == "slow":
			rankcube.WriteSlowQueryLog(os.Stdout)
		case line == "stats":
			rankcube.DefaultRegistry().WriteText(os.Stdout)
		case line == "health":
			for _, h := range cube.Health() {
				fmt.Printf("  %-12v %-12s %d pages\n", h.Kind, h.State, h.Pages)
			}
			if st := cube.AdmissionStats(); st.Gated {
				fmt.Printf("  gate: %d in flight, %d waiting, draining=%v\n", st.InFlight, st.Waiting, st.Draining)
			} else {
				fmt.Println("  gate: none (ungated)")
			}
		case line == "repair":
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			reports, err := cube.Repair(ctx)
			stop()
			for _, r := range reports {
				fmt.Printf("  %-12v corrupt=%d rebuilt=%v(%d pages) probed=%v readmitted=%v state=%s\n",
					r.Kind, r.CorruptPages, r.Rebuilt, r.RebuiltPages, r.Probed, r.Readmitted, r.State)
			}
			if err != nil {
				fmt.Printf("  error: %v\n", err)
			}
		default:
			// A per-query signal context: Ctrl-C cancels the running query
			// (its execution context aborts it within a bounded number of
			// block reads) and returns to the prompt; at an idle prompt the
			// default signal disposition still exits the process.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			err := execute(ctx, line, rel, cube, eng)
			stop()
			if err != nil {
				fmt.Printf("  error: %v\n", err)
			}
		}
	}
}

func execute(ctx context.Context, line string, rel *rankcube.Relation, cube *rankcube.SignatureCube, eng *rankcube.SkylineEngine) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	var tr *rankcube.Trace
	if fields[0] == "trace" {
		if len(fields) == 1 {
			return fmt.Errorf(`usage: trace <top …|sky …>`)
		}
		tr = rankcube.NewTrace()
		defer func() {
			fmt.Print(indent(tr.Render()))
		}()
		fields = fields[1:]
	}
	opts := []rankcube.Option{rankcube.WithTrace(tr)}
	if tr == nil {
		opts = nil
	}
	switch fields[0] {
	case "top":
		if len(fields) < 4 {
			return fmt.Errorf(`usage: top K [dim=val ...] by SPEC`)
		}
		k, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("bad k %q", fields[1])
		}
		byIdx := indexOf(fields, "by")
		if byIdx < 0 || byIdx == len(fields)-1 {
			return fmt.Errorf(`missing "by SPEC"`)
		}
		cond, err := parseCond(fields[2:byIdx])
		if err != nil {
			return err
		}
		f, err := parseFunc(strings.Join(fields[byIdx+1:], ""))
		if err != nil {
			return err
		}
		m := rankcube.NewMetrics()
		res, err := cube.Query(ctx, cond, f, k, append(opts, rankcube.WithMetrics(m))...)
		if err != nil {
			return err
		}
		for i, r := range res {
			fmt.Printf("  %2d. tuple #%d score=%.4f\n", i+1, r.TID, r.Score)
		}
		fmt.Printf("  [%s]\n", m)
		return nil
	case "sky":
		onIdx := indexOf(fields, "on")
		if onIdx < 0 || onIdx == len(fields)-1 {
			return fmt.Errorf(`missing "on d1,d2"`)
		}
		cond, err := parseCond(fields[1:onIdx])
		if err != nil {
			return err
		}
		var dims []int
		for _, s := range strings.Split(fields[onIdx+1], ",") {
			d, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("bad dim %q", s)
			}
			dims = append(dims, d)
		}
		m := rankcube.NewMetrics()
		sky, _, err := eng.Query(ctx, cond, dims, nil, append(opts, rankcube.WithMetrics(m))...)
		if err != nil {
			return err
		}
		for i, r := range sky {
			if i == 15 {
				fmt.Printf("  … %d more\n", len(sky)-15)
				break
			}
			fmt.Printf("  tuple #%d coord=%v\n", r.TID, r.Coord)
		}
		fmt.Printf("  %d skyline points [%s]\n", len(sky), m)
		return nil
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

// indent prefixes every line of a rendered span tree for REPL output.
func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func indexOf(fields []string, word string) int {
	for i, f := range fields {
		if f == word {
			return i
		}
	}
	return -1
}

func parseCond(fields []string) (rankcube.Cond, error) {
	cond := rankcube.Cond{}
	for _, f := range fields {
		parts := strings.SplitN(f, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad condition %q (want dim=val)", f)
		}
		d, err1 := strconv.Atoi(parts[0])
		v, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad condition %q", f)
		}
		cond[d] = int32(v)
	}
	return cond, nil
}

// parseFunc understands "w1*N1+w2*N2..." and "dist:t1,t2,...".
func parseFunc(spec string) (rankcube.Func, error) {
	if target, ok := strings.CutPrefix(spec, "dist:"); ok {
		var attrs []int
		var vals []float64
		for i, s := range strings.Split(target, ",") {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("bad target %q", s)
			}
			attrs = append(attrs, i)
			vals = append(vals, v)
		}
		return rankcube.SqDist(attrs, vals), nil
	}
	var attrs []int
	var weights []float64
	for _, term := range strings.Split(spec, "+") {
		parts := strings.SplitN(term, "*", 2)
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "N") {
			return nil, fmt.Errorf("bad term %q (want w*Ni)", term)
		}
		w, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q", parts[0])
		}
		// N1 refers to the first ranking dimension (position 0).
		idx, err := strconv.Atoi(parts[1][1:])
		if err != nil || idx < 1 {
			return nil, fmt.Errorf("bad attribute %q", parts[1])
		}
		attrs = append(attrs, idx-1)
		weights = append(weights, w)
	}
	return rankcube.Linear(attrs, weights), nil
}

// loadCSV reads a relation: the first selN columns become selection
// dimensions (categorical codes assigned by value), the rest ranking
// dimensions (parsed as floats).
func loadCSV(path string, selN int) (*rankcube.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := csv.NewReader(f)
	rows, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%s: need a header and at least one row", path)
	}
	header := rows[0]
	if selN < 0 || selN >= len(header) {
		return nil, fmt.Errorf("-sel %d out of range for %d columns", selN, len(header))
	}
	// First pass: dictionary-encode selection columns.
	dicts := make([]map[string]int32, selN)
	for d := range dicts {
		dicts[d] = make(map[string]int32)
	}
	for _, row := range rows[1:] {
		for d := 0; d < selN; d++ {
			if _, ok := dicts[d][row[d]]; !ok {
				dicts[d][row[d]] = int32(len(dicts[d]))
			}
		}
	}
	cards := make([]int, selN)
	for d := range cards {
		cards[d] = len(dicts[d])
		if cards[d] == 0 {
			cards[d] = 1
		}
	}
	rel, err := rankcube.NewRelation(header[:selN], cards, header[selN:])
	if err != nil {
		return nil, err
	}
	sel := make([]int32, selN)
	rank := make([]float64, len(header)-selN)
	for i, row := range rows[1:] {
		for d := 0; d < selN; d++ {
			sel[d] = dicts[d][row[d]]
		}
		for d := selN; d < len(header); d++ {
			v, err := strconv.ParseFloat(strings.TrimSpace(row[d]), 64)
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %v", i+2, header[d], err)
			}
			rank[d-selN] = v
		}
		rel.Append(sel, rank)
	}
	return rel, nil
}
