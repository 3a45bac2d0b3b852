// Package bench is the experiment harness reproducing every table and
// figure of the thesis' evaluation sections. Each experiment function
// regenerates one figure's series: the same sweep axis, the same competing
// methods, the same metric (wall-clock time, block reads, states, heap
// peaks, or bytes). Absolute values differ from the 2007 testbed; the
// reproduction target is the shape — who wins, by what order of magnitude,
// and where trends bend.
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
	"rankcube/internal/governor"
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
	// ReadCostMS is the simulated cost of one block read in milliseconds,
	// folded into every time metric. The thesis' execution times are
	// disk-bound; pure in-memory wall clock would invert several of its
	// verdicts. Default 0.1 ms (a fast 2005-era sequential 4 KB read; the
	// relative shapes are insensitive to the constant). Set negative for
	// raw wall clock.
	ReadCostMS float64
	// Context, when non-nil, bounds the run: cancellation stops a workload
	// between queries and, through the query governor, within a query at
	// block-read granularity. Partial aggregates are kept.
	//lint:ctxfield options-struct carrier: Config is consumed once at Run entry, not retained past it
	Context context.Context
}

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
	if c.ReadCostMS == 0 {
		c.ReadCostMS = 0.1
	}
	if c.ReadCostMS < 0 {
		c.ReadCostMS = 0
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

// Point is one measurement at one sweep position for one method.
type Point struct {
	X     string  // sweep label, e.g. "k=10"
	Value float64 // primary metric value
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
	Metric string // what Value means, e.g. "ms", "block reads"
	Series []Series
	// Notes records deviations or scale information.
	Notes []string
}

// String renders the report as an aligned text table, series as columns.
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
	// Header.
	fmt.Fprintf(&b, "%-18s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	for i := range r.Series[0].Points {
		fmt.Fprintf(&b, "%-18s", r.Series[0].Points[i].X)
		for _, s := range r.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%16s", formatValue(s.Points[i].Value))
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
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

// runner measures one method over a workload of queries.
type runner struct {
	name string
	// exec runs one query and returns optional auxiliary metrics.
	exec func(qi int, ctr *stats.Counters)
}

// measurement aggregates a workload run.
type measurement struct {
	avgTime  time.Duration
	counters *stats.Counters
	queries  int
	readCost float64 // ms charged per block read
}

// ms reports the per-query time metric: wall clock plus simulated I/O.
func (m measurement) ms() float64 {
	wall := float64(m.avgTime.Microseconds()) / 1000
	return wall + m.avgReads()*m.readCost
}

// avgReads reports mean block reads per query for the given structures
// (all structures when none given).
func (m measurement) avgReads(structs ...stats.Structure) float64 {
	var total int64
	if len(structs) == 0 {
		total = m.counters.TotalReads()
	} else {
		for _, s := range structs {
			total += m.counters.Reads(s)
		}
	}
	return float64(total) / float64(m.queries)
}

// run executes the workload and aggregates time and counters. A canceled
// Config.Context stops the loop — mid-query via the governor's block-read
// checks — and the partial aggregate over the completed queries is kept.
func run(cfg Config, queries int, exec func(qi int, ctr *stats.Counters)) measurement {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	agg := stats.New()
	start := time.Now()
	done := 0
	for qi := 0; qi < queries; qi++ {
		if ctx.Err() != nil {
			break
		}
		ctr := stats.New()
		ctr.SetGovernor(governor.New(ctx, governor.Limits{}))
		qStart := time.Now()
		canceled := runOne(exec, qi, ctr)
		ctr.SetGovernor(nil)
		outcome := obs.OutcomeOK
		if canceled {
			outcome = obs.OutcomeCanceled
		}
		// Feed the live registry so rankbench's -http endpoint shows
		// harness traffic, not just public-API queries.
		obs.Default().RecordQuery("bench", outcome, time.Since(qStart),
			ctr.ReadsSnapshot(), ctr.Retries, ctr.Downgrades)
		agg.Merge(ctr)
		done++
		if canceled {
			break
		}
	}
	if done == 0 {
		done = 1 // canceled before the first query; avoid dividing by zero
	}
	elapsed := time.Since(start)
	return measurement{
		avgTime:  elapsed / time.Duration(done),
		counters: agg,
		queries:  done,
		readCost: cfg.ReadCostMS,
	}
}

// runOne executes one query under its governor, absorbing a cancellation
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

// workloadRand returns the harness RNG for query generation.
func (c Config) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + offset))
}

// Registry lists every experiment by id.
var Registry = map[string]func(Config) *Report{}

// register wires an experiment into the registry (called from init funcs).
func register(id string, fn func(Config) *Report) {
	Registry[id] = fn
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Report, error) {
	fn, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v): %w", id, IDs(), errs.ErrInvalidArgument)
	}
	return fn(cfg.Defaults()), nil
}

// RunCtx executes one experiment by id under ctx: cancellation (e.g. a
// propagated SIGINT) stops each workload between queries and within a query
// at block-read granularity, returning the partially filled report.
func RunCtx(ctx context.Context, id string, cfg Config) (*Report, error) {
	cfg.Context = ctx
	return Run(id, cfg)
}
