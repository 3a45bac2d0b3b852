// Package bench is the experiment harness reproducing every table and
// figure of the thesis' evaluation sections. Each experiment function
// regenerates one figure's series: the same sweep axis, the same competing
// methods, the same metric (execution time, block reads, states, heap
// peaks, or bytes). Absolute values differ from the 2007 testbed; the
// reproduction target is the shape — who wins, by what order of magnitude,
// and where trends bend.
//
// A query-time point is a measurement, not a number: wall-clock CPU, governed
// block reads and the modelled time that combines them, never one without
// the other two. A Report names the column its thesis figure plots, and
// prints that table first and every measurement in full under it.
//
// Experiments accept a Config whose Scale multiplies the thesis' row
// counts; the default of 0.1 keeps the full suite in laptop territory while
// preserving the comparative behaviour.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rankcube/internal/errs"
	"rankcube/internal/obs"
	"rankcube/internal/stats"
)

// Config parameterizes a harness run.
type Config struct {
	// Scale multiplies the thesis' dataset sizes (default 0.1 → 3M-row
	// experiments run at 300k).
	Scale float64
	// Queries is the number of random queries averaged per data point
	// (thesis: 20).
	Queries int
	// Seed drives workload generation.
	Seed int64
}

// readCostMS is the modelled cost of one governed block read in
// milliseconds — the value of the repo benchmark's report.ReadCostMS, and
// like it a constant. The thesis' execution times are disk-bound; in-memory
// wall clock alone would invert several of its verdicts, so an
// execution-time figure plots CPU + readCostMS × reads and prints both terms
// beside it. The relative shapes are insensitive to the constant.
const readCostMS = 0.1

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Queries <= 0 {
		c.Queries = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// T scales a thesis row count, keeping at least 1000 rows.
func (c Config) T(thesisRows int) int {
	n := int(float64(thesisRows) * c.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// rng returns the harness RNG for query generation.
func (c Config) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + offset))
}

// Measured is what one method cost per query at one sweep position: the
// triple — wall-clock CPU, governed block reads, and the modelled time that
// combines them — and the two search-size counts the thesis also plots.
type Measured struct {
	Queries    int                         // queries averaged; 0 on a build-time or size point
	CPUms      float64                     // wall clock per query
	Reads      float64                     // governed block reads per query, all structures
	ReadsBy    map[stats.Structure]float64 // the same, per structure
	ModelledMS float64                     // CPUms + readCostMS × Reads
	States     float64                     // states generated per query (fig. 5.11)
	PeakHeap   int                         // largest heap any one query held (figs. 5.12, 7.5)
}

// measure is the per-query average of a workload of the given number of
// queries that took elapsed of wall clock and recorded c.
func measure(queries int, elapsed time.Duration, c *stats.Counters) Measured {
	if queries == 0 {
		return Measured{} // canceled before the first query
	}
	n := float64(queries)
	m := Measured{
		Queries:  queries,
		CPUms:    millis(elapsed) / n,
		Reads:    float64(c.TotalReads()) / n,
		ReadsBy:  map[stats.Structure]float64{},
		States:   float64(c.StatesGenerated) / n,
		PeakHeap: c.PeakHeap,
	}
	for s, v := range c.ReadCounts() {
		if v > 0 {
			m.ReadsBy[stats.Structure(s)] = float64(v) / n
		}
	}
	m.ModelledMS = m.CPUms + readCostMS*m.Reads
	return m
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// column is one view of a measurement: the unit a Report names as its Metric
// and the number a Point carries as its Value. A build-time or size figure
// has no measurement to view (of is nil) and sets Value itself.
type column struct {
	metric string
	of     func(Measured) float64
}

var (
	modelled   = column{"modelled ms/query (CPU + 0.1 ms × block reads)", func(m Measured) float64 { return m.ModelledMS }}
	reads      = column{"block reads/query", func(m Measured) float64 { return m.Reads }}
	rtreeReads = column{"R-tree blocks/query", func(m Measured) float64 { return m.ReadsBy[stats.StructRTree] }}
	states     = column{"states generated/query", func(m Measured) float64 { return m.States }}
	peakHeap   = column{"max heap entries", func(m Measured) float64 { return float64(m.PeakHeap) }}
	buildMS    = column{metric: "ms"}
	sizeMB     = column{metric: "MB"}
)

// Point is one method at one sweep position.
type Point struct {
	X        string  // sweep label, e.g. "k=10"
	Value    float64 // what the figure plots at X, in the Report's Metric
	Measured         // the whole measurement, when X is a query workload
}

// Series is one method's curve.
type Series struct {
	Name   string
	Points []Point
}

// Report is one regenerated figure or table.
type Report struct {
	ID     string // e.g. "fig3.4"
	Title  string // the thesis caption
	XLabel string
	Metric string // what Value means, e.g. "block reads/query", "MB"
	Series []Series
	// Notes records deviations or scale information.
	Notes []string

	plot func(Measured) float64 // the column Metric names
}

// add appends a point to the named series, which it creates on first use.
func (r *Report) add(series string, p Point) {
	for i := range r.Series {
		if r.Series[i].Name == series {
			r.Series[i].Points = append(r.Series[i].Points, p)
			return
		}
	}
	r.Series = append(r.Series, Series{Name: series, Points: []Point{p}})
}

// String renders the report as aligned text: the table the thesis plots,
// series as columns, and under it one row per measured point with the whole
// triple, the search-size counts and the reads per structure.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "metric: %s\n", r.Metric)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-18s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	var detail strings.Builder
	for i := range r.Series[0].Points {
		fmt.Fprintf(&b, "%-18s", r.Series[0].Points[i].X)
		for _, s := range r.Series {
			if i >= len(s.Points) {
				fmt.Fprintf(&b, "%16s", "-")
				continue
			}
			p := s.Points[i]
			fmt.Fprintf(&b, "%16s", formatValue(p.Value))
			if p.Queries > 0 {
				fmt.Fprintf(&detail, "%-18s%16s%12s%12s%12s%12s%10d  %s\n", p.X, s.Name,
					formatValue(p.CPUms), formatValue(p.Reads), formatValue(p.ModelledMS),
					formatValue(p.States), p.PeakHeap, formatReads(p.ReadsBy))
			}
		}
		b.WriteByte('\n')
	}
	if detail.Len() > 0 {
		fmt.Fprintf(&b, "per query:\n%-18s%16s%12s%12s%12s%12s%10s  %s\n%s", r.XLabel, "series",
			"cpu ms", "reads", "modelled ms", "states", "peak heap", "reads by structure", detail.String())
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func formatReads(by map[stats.Structure]float64) string {
	parts := make([]string, 0, len(by))
	for s, v := range by {
		parts = append(parts, fmt.Sprintf("%s=%s", s, formatValue(v)))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// method is one competitor at one sweep position: its legend name and the
// function that runs query qi of the position's workload.
type method struct {
	name string
	exec func(qi int, ctr *stats.Counters)
}

// sweep is the body of every query-time figure. At each position of the axis
// it asks at for the competitors there — over whatever dataset and
// structures the position calls for — runs each over a workload of queries
// queries, and appends the measurement to the method's series, with the
// column the figure plots as the point's Value.
func sweep[X any](ctx context.Context, rep *Report, queries int, xlabel, format string, axis []X, at func(x X) []method) {
	rep.XLabel = xlabel
	for _, x := range axis {
		if ctx.Err() != nil {
			return // the positions measured so far are the partial report
		}
		for _, m := range at(x) {
			got := run(ctx, queries, m.exec)
			rep.add(m.name, Point{X: fmt.Sprintf(format, x), Value: rep.plot(got), Measured: got})
		}
	}
}

// run executes the workload and aggregates time and counters. A canceled ctx
// stops the loop — mid-query via the block-read checks of the query's
// execution context — and the partial aggregate over the completed queries
// is kept.
func run(ctx context.Context, queries int, exec func(qi int, ctr *stats.Counters)) Measured {
	agg := stats.New()
	start := time.Now()
	done := 0
	for qi := 0; qi < queries && ctx.Err() == nil; qi++ {
		ctr := stats.Governed(ctx, stats.Limits{}, nil)
		qStart := time.Now()
		canceled := runOne(exec, qi, ctr)
		outcome := obs.OutcomeOK
		if canceled {
			outcome = obs.OutcomeCanceled
		}
		// Feed the live registry so rankbench's -http endpoint shows
		// harness traffic, not just public-API queries.
		reads := map[stats.Structure]int64{}
		for s, n := range ctr.ReadCounts() {
			reads[stats.Structure(s)] = n
		}
		obs.Default().RecordQuery("bench", outcome, time.Since(qStart), reads, ctr.Retries, ctr.Downgrades)
		agg.Merge(ctr)
		done++
		if canceled {
			break
		}
	}
	return measure(done, time.Since(start), agg)
}

// runOne executes one query under its context, absorbing a cancellation
// abort so an interrupt mid-query still yields the partial aggregate. Any
// other panic propagates: the harness has no business masking engine bugs.
func runOne(exec func(qi int, ctr *stats.Counters), qi int, ctr *stats.Counters) (canceled bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := errs.IsAbort(r); ok && errors.Is(err, errs.ErrCanceled) {
				canceled = true
				return
			}
			//lint:invariant re-raise: the harness must not mask engine bugs
			panic(r)
		}
	}()
	exec(qi, ctr)
	return false
}

// must stops the experiment on a query error. Benchmark workloads are fixed
// and known-good, so any error reaching the harness is a bug in the harness
// or the engine, not a recoverable fault.
func must(err error) {
	if err != nil {
		//lint:invariant benchmark workloads are known-good; an error is a harness bug
		panic(err)
	}
}

// experiment is one entry of the inventory: the id rankbench takes, the
// thesis caption, the column the thesis plots, and the function that fills
// the report's series.
type experiment struct {
	id, title string
	plot      column
	run       func(ctx context.Context, cfg Config, rep *Report)
}

// experiments is the inventory, in thesis order. A figure family that the
// thesis shows from several sides (time, disk, heap) is one function under
// each of its ids, plotting a different column of the same measurements.
var experiments = []experiment{
	{"fig3.4", "Query Execution Time w.r.t. k", modelled, fig3_4},
	{"fig3.5", "Query Execution Time w.r.t. u", modelled, fig3_5},
	{"fig3.6", "Query Execution Times w.r.t. r", modelled, fig3_6},
	{"fig3.7", "Query Execution Time w.r.t. T", modelled, fig3_7},
	{"fig3.8", "Query Execution Time w.r.t. C", modelled, fig3_8},
	{"fig3.9", "Query Execution Time w.r.t. s", modelled, fig3_9},
	{"fig3.10", "Query Execution Time w.r.t. Block Size", modelled, fig3_10},
	{"fig3.11", "Space Usage w.r.t. Number of Selection Dimensions", sizeMB, fig3_11},
	{"fig3.12", "Query Execution Time w.r.t. Number of Covering Fragments", modelled, fig3_12},
	{"fig3.13", "Query Execution Time w.r.t. Fragment Size", modelled, fig3_13},
	{"fig3.14", "Query Execution Time w.r.t. S", modelled, fig3_14},
	{"fig3.15", "Query Execution Time on Real Data", modelled, fig3_15},
	{"fig4.8", "Construction Time w.r.t. T", buildMS, ch4Build(false)},
	{"fig4.9", "Materialized Size w.r.t. T", sizeMB, ch4Build(true)},
	{"fig4.10", "Signature Compression w.r.t. C", sizeMB, fig4_10},
	{"fig4.11", "Cost of Incremental Updates", column{metric: "ms (batch total)"}, fig4_11},
	{"fig4.12", "Execution Time w.r.t. k", modelled, fig4_12},
	{"fig4.13", "Disk Access w.r.t. Functions", rtreeReads, fig4_13},
	{"tbl5.1", "Significance of the two challenges (basic vs improved merge)", states, tbl5_1},
	{"fig5.7", "Execution Time w.r.t. K, f = fs", modelled, ch5OverK("fs")},
	{"fig5.8", "Execution Time w.r.t. K, f = fg", modelled, ch5OverK("fg")},
	{"fig5.9", "Execution Time w.r.t. K, f = fc", modelled, ch5OverK("fc")},
	{"fig5.10", "Disk Access w.r.t. f, k = 100", reads, ch5OverF},
	{"fig5.11", "States Generated w.r.t. f, k = 100", states, ch5OverF},
	{"fig5.12", "Peak Heap Size w.r.t. f, k = 100", peakHeap, ch5OverF},
	{"fig5.13", "Execution Time w.r.t. K, Real Data", modelled, fig5_13},
	{"fig5.14", "Execution Time w.r.t. R-Tree", modelled, fig5_14},
	{"fig5.15", "Execution Time w.r.t. K, 3 Indices", modelled, ch5ThreeWay},
	{"fig5.16", "Peak Heap Size w.r.t. K, 3 Indices", peakHeap, ch5ThreeWay},
	{"fig5.17", "Disk Access w.r.t. K, 3 Indices", reads, ch5ThreeWay},
	{"fig5.18", "Partial Attributes in Ranking", modelled, fig5_18},
	{"fig5.19", "Execution Time w.r.t. Node Size", modelled, fig5_19},
	{"fig5.20", "Execution Time w.r.t. T", modelled, fig5_20},
	{"fig5.21", "Construction Time w.r.t. T", buildMS, ch5JoinSig(false)},
	{"fig5.22", "Size of Join-signatures w.r.t. T", sizeMB, ch5JoinSig(true)},
	{"fig6.3", "Execution Time w.r.t. Cardinalities", modelled, fig6_3},
	{"fig6.4", "Query Execution w.r.t. Database Size", modelled, fig6_4},
	{"fig7.3", "Execution Time w.r.t. T", modelled, ch7OverT},
	{"fig7.4", "Number of Disk Access w.r.t. T", reads, ch7OverT},
	{"fig7.5", "Peak Candidate Heap Size w.r.t. T", peakHeap, ch7OverT},
	{"fig7.6", "Execution Time w.r.t. C", modelled, fig7_6},
	{"fig7.7", "Execution Time w.r.t. S", modelled, fig7_7},
	{"fig7.8", "Execution Time w.r.t. Dp", modelled, fig7_8},
	{"fig7.9", "Execution Time w.r.t. m", modelled, fig7_9},
	{"fig7.10", "Execution Time w.r.t. Hardness", modelled, fig7_10},
	{"fig7.11", "Execution Time w.r.t. Boolean Predicates", modelled, fig7_11},
	{"fig7.12", "Signature Loading Time vs. Query Time", modelled, fig7_12},
	{"fig7.13", "Drill-Down Query vs. New Query", modelled, ch7Navigate(false)},
	{"fig7.14", "Roll-Up Query vs. New Query", modelled, ch7Navigate(true)},
	{"ext.idlist", "ID List Compression (§3.6.3 ablation)", modelled, extIDList},
	{"ext.bloom", "Lossy Bloom Signatures (§4.5 ablation)", modelled, extBloom},
	{"ext.gridpart", "Grid vs Hierarchical Partition (§4.1.2)", modelled, extGridPart},
}

// IDs returns the experiment ids in thesis order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by id under ctx: cancellation (e.g. a
// propagated SIGINT) stops each workload between queries and within a query
// at block-read granularity, returning the partially filled report.
func Run(ctx context.Context, id string, cfg Config) (*Report, error) {
	for _, e := range experiments {
		if e.id == id {
			rep := &Report{ID: id, Title: e.title, Metric: e.plot.metric, plot: e.plot.of}
			e.run(ctx, cfg.Defaults(), rep)
			return rep, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v): %w", id, IDs(), errs.ErrInvalidArgument)
}
