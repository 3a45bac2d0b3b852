package bench

import (
	"fmt"
	"math/rand"

	"rankcube/internal/baselines"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/gridcube"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ch3Env packages the chapter-3 competitors over one dataset: the ranking
// cube (or fragments), the rank-mapping index, and the SQL-Server-style
// baseline (per-dimension indexes + random access).
type ch3Env struct {
	tb   *table.Table
	cube *gridcube.Cube
	heap *baselines.HeapFile
	bl   *baselines.BooleanFirst
	rm   *baselines.RankMapping
}

func newCh3Env(tb *table.Table, cubeCfg gridcube.Config) *ch3Env {
	h := baselines.NewHeapFile(tb, 0)
	return &ch3Env{
		tb:   tb,
		cube: gridcube.Build(tb, cubeCfg),
		heap: h,
		bl:   baselines.NewBooleanFirst(h),
		rm:   baselines.NewRankMapping(tb, 0),
	}
}

// ch3Query is one randomized workload query per thesis Table 3.9.
type ch3Query struct {
	cond core.Cond
	f    ranking.Func
	k    int
}

// ch3Workload draws queries with s selection conditions over the first
// selDims dimensions, linear functions over r ranking dimensions with
// skewness u, asking for k results.
func ch3Workload(rng *rand.Rand, tb *table.Table, n, s, r int, u float64, k int) []ch3Query {
	out := make([]ch3Query, n)
	schema := tb.Schema()
	for i := range out {
		cond := core.Cond{}
		for _, d := range rng.Perm(schema.S())[:s] {
			cond[d] = int32(rng.Intn(schema.SelCard[d]))
		}
		attrs := make([]int, r)
		weights := make([]float64, r)
		for j := 0; j < r; j++ {
			attrs[j] = j
			weights[j] = 1 + rng.Float64()*(u-1)
		}
		// Force the exact skew u between two of the weights.
		if r >= 2 && u > 1 {
			weights[0] = 1
			weights[1] = u
		}
		out[i] = ch3Query{cond: cond, f: ranking.Linear(attrs, weights), k: k}
	}
	return out
}

// measure runs the workload through each competitor and returns per-method
// measurements.
func (e *ch3Env) measure(queries []ch3Query, cfg Config) map[string]measurement {
	return map[string]measurement{
		"ranking-cube": run(cfg, len(queries), func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			if _, err := e.cube.TopK(gridcube.Query{Cond: q.cond, F: q.f, K: q.k}, ctr); err != nil {
				must(err)
			}
		}),
		"rank-mapping": run(cfg, len(queries), func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			e.rm.TopK(q.cond, q.f, q.k, ctr)
		}),
		"baseline": run(cfg, len(queries), func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			e.bl.TopK(q.cond, q.f, q.k, ctr)
		}),
	}
}

var ch3Methods = []string{"ranking-cube", "rank-mapping", "baseline"}

func timeSeries(points map[string][]Point) []Series {
	out := make([]Series, 0, len(ch3Methods))
	for _, m := range ch3Methods {
		out = append(out, Series{Name: m, Points: points[m]})
	}
	return out
}

func init() {
	register("fig3.4", fig3_4)
	register("fig3.5", fig3_5)
	register("fig3.6", fig3_6)
	register("fig3.7", fig3_7)
	register("fig3.8", fig3_8)
	register("fig3.9", fig3_9)
	register("fig3.10", fig3_10)
	register("fig3.11", fig3_11)
	register("fig3.12", fig3_12)
	register("fig3.13", fig3_13)
	register("fig3.14", fig3_14)
	register("fig3.15", fig3_15)
}

// fig3_4: execution time w.r.t. k on the default synthetic data.
func fig3_4(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 3, 2, 20, table.Uniform, cfg.Seed)
	env := newCh3Env(tb, gridcube.Config{})
	rep := &Report{ID: "fig3.4", Title: "Query Execution Time w.r.t. k",
		XLabel: "k", Metric: "ms/query",
		Notes: []string{fmt.Sprintf("T=%d (thesis 3M scaled by %.2g)", tb.Len(), cfg.Scale)}}
	points := map[string][]Point{}
	for _, k := range []int{5, 10, 15, 20} {
		queries := ch3Workload(cfg.rng(int64(k)), tb, cfg.Queries, 2, 2, 1, k)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("k=%d", k), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	return rep
}

// fig3_5: execution time w.r.t. query skewness u.
func fig3_5(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 3, 2, 20, table.Uniform, cfg.Seed)
	env := newCh3Env(tb, gridcube.Config{})
	rep := &Report{ID: "fig3.5", Title: "Query Execution Time w.r.t. u",
		XLabel: "skewness u", Metric: "ms/query"}
	points := map[string][]Point{}
	for _, u := range []float64{1, 2, 3, 4, 5} {
		queries := ch3Workload(cfg.rng(int64(u*7)), tb, cfg.Queries, 2, 2, u, 10)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("u=%g", u), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	return rep
}

// fig3_6: execution time w.r.t. r, the number of ranking dimensions in the
// function, on 4-ranking-dimension data.
func fig3_6(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 3, 4, 20, table.Uniform, cfg.Seed)
	env := newCh3Env(tb, gridcube.Config{})
	rep := &Report{ID: "fig3.6", Title: "Query Execution Times w.r.t. r",
		XLabel: "r", Metric: "ms/query"}
	points := map[string][]Point{}
	for _, r := range []int{2, 3, 4} {
		queries := ch3Workload(cfg.rng(int64(r)), tb, cfg.Queries, 2, r, 1, 10)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("r=%d", r), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	return rep
}

// fig3_7: execution time w.r.t. database size T.
func fig3_7(cfg Config) *Report {
	rep := &Report{ID: "fig3.7", Title: "Query Execution Time w.r.t. T",
		XLabel: "T (thesis rows)", Metric: "ms/query"}
	points := map[string][]Point{}
	for _, millions := range []int{1, 2, 3, 5, 10} {
		tb := dataset.Synthetic(cfg.T(millions*1_000_000), 3, 2, 20, table.Uniform, cfg.Seed)
		env := newCh3Env(tb, gridcube.Config{})
		queries := ch3Workload(cfg.rng(int64(millions)), tb, cfg.Queries, 2, 2, 1, 10)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("%dM", millions), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	return rep
}

// fig3_8: execution time w.r.t. selection-dimension cardinality C.
func fig3_8(cfg Config) *Report {
	rep := &Report{ID: "fig3.8", Title: "Query Execution Time w.r.t. C",
		XLabel: "cardinality", Metric: "ms/query"}
	points := map[string][]Point{}
	for _, c := range []int{10, 20, 50, 100} {
		tb := dataset.Synthetic(cfg.T(3_000_000), 3, 2, c, table.Uniform, cfg.Seed)
		env := newCh3Env(tb, gridcube.Config{})
		queries := ch3Workload(cfg.rng(int64(c)), tb, cfg.Queries, 2, 2, 1, 10)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("C=%d", c), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	return rep
}

// fig3_9: execution time w.r.t. number of selection conditions s.
func fig3_9(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 4, 2, 20, table.Uniform, cfg.Seed)
	env := newCh3Env(tb, gridcube.Config{})
	rep := &Report{ID: "fig3.9", Title: "Query Execution Time w.r.t. s",
		XLabel: "s", Metric: "ms/query"}
	points := map[string][]Point{}
	for _, s := range []int{2, 3, 4} {
		queries := ch3Workload(cfg.rng(int64(s)), tb, cfg.Queries, s, 2, 1, 10)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("s=%d", s), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	return rep
}

// fig3_10: ranking-cube execution time w.r.t. base block size.
func fig3_10(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 3, 2, 20, table.Uniform, cfg.Seed)
	rep := &Report{ID: "fig3.10", Title: "Query Execution Time w.r.t. Block Size",
		XLabel: "block size", Metric: "ms/query"}
	var series Series
	series.Name = "ranking-cube"
	for _, b := range []int{100, 200, 500, 1000} {
		cube := gridcube.Build(tb, gridcube.Config{BlockSize: b})
		queries := ch3Workload(cfg.rng(int64(b)), tb, cfg.Queries, 2, 2, 1, 10)
		m := run(cfg, len(queries), func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			if _, err := cube.TopK(gridcube.Query{Cond: q.cond, F: q.f, K: q.k}, ctr); err != nil {
				must(err)
			}
		})
		series.Points = append(series.Points, Point{X: fmt.Sprintf("B=%d", b), Value: m.ms()})
	}
	rep.Series = []Series{series}
	return rep
}

// fig3_11: space usage w.r.t. number of selection dimensions (fragments
// F=2 vs the baselines' index space).
func fig3_11(cfg Config) *Report {
	rep := &Report{ID: "fig3.11", Title: "Space Usage w.r.t. Number of Selection Dimensions",
		XLabel: "S", Metric: "MB",
		Notes: []string{"RF = ranking fragments (F=2) incl. base block table; RM/BL = index sizes incl. heap file"}}
	var rf, rm, bl Series
	rf.Name, rm.Name, bl.Name = "RF", "RM", "BL"
	for _, s := range []int{3, 6, 9, 12} {
		tb := dataset.Synthetic(cfg.T(3_000_000), s, 2, 20, table.Uniform, cfg.Seed)
		cube := gridcube.Build(tb, gridcube.Config{FragmentSize: 2})
		h := baselines.NewHeapFile(tb, 0)
		blIdx := baselines.NewBooleanFirst(h)
		rmIdx := baselines.NewRankMapping(tb, 0)
		mb := func(v int64) float64 { return float64(v) / (1 << 20) }
		x := fmt.Sprintf("S=%d", s)
		rf.Points = append(rf.Points, Point{X: x, Value: mb(cube.SizeBytes() + h.SizeBytes())})
		rm.Points = append(rm.Points, Point{X: x, Value: mb(rmIdx.IndexSizeBytes() + h.SizeBytes())})
		bl.Points = append(bl.Points, Point{X: x, Value: mb(blIdx.IndexSizeBytes() + h.SizeBytes())})
	}
	rep.Series = []Series{rf, rm, bl}
	return rep
}

// fig3_12: execution time w.r.t. the number of covering fragments.
func fig3_12(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 12, 2, 20, table.Uniform, cfg.Seed)
	cube := gridcube.Build(tb, gridcube.Config{FragmentSize: 3})
	rep := &Report{ID: "fig3.12", Title: "Query Execution Time w.r.t. Number of Covering Fragments",
		XLabel: "covering fragments", Metric: "ms/query",
		Notes: []string{"fragments of size 3 over 12 dims; 3-condition queries spanning 1, 2, or 3 fragments"}}
	// With groups {0,1,2},{3,4,5},{6,7,8},{9,10,11}: conds {0,1,2} → 1
	// fragment, {0,1,3} → 2, {0,3,6} → 3.
	condDims := [][]int{{0, 1, 2}, {0, 1, 3}, {0, 3, 6}}
	var series Series
	series.Name = "ranking-fragments"
	for nf, dims := range condDims {
		rng := cfg.rng(int64(nf))
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			cond := core.Cond{}
			for _, d := range dims {
				cond[d] = int32(rng.Intn(20))
			}
			f := ranking.Sum(0, 1)
			if _, err := cube.TopK(gridcube.Query{Cond: cond, F: f, K: 10}, ctr); err != nil {
				must(err)
			}
		})
		series.Points = append(series.Points, Point{X: fmt.Sprintf("%d", nf+1), Value: m.ms()})
	}
	rep.Series = []Series{series}
	return rep
}

// fig3_13: execution time w.r.t. fragment size F.
func fig3_13(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(3_000_000), 12, 2, 20, table.Uniform, cfg.Seed)
	rep := &Report{ID: "fig3.13", Title: "Query Execution Time w.r.t. Fragment Size",
		XLabel: "F", Metric: "ms/query"}
	var series Series
	series.Name = "ranking-fragments"
	for _, f := range []int{1, 2, 3} {
		cube := gridcube.Build(tb, gridcube.Config{FragmentSize: f})
		queries := ch3Workload(cfg.rng(int64(f)), tb, cfg.Queries, 3, 2, 1, 10)
		m := run(cfg, len(queries), func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			if _, err := cube.TopK(gridcube.Query{Cond: q.cond, F: q.f, K: q.k}, ctr); err != nil {
				must(err)
			}
		})
		series.Points = append(series.Points, Point{X: fmt.Sprintf("F=%d", f), Value: m.ms()})
	}
	rep.Series = []Series{series}
	return rep
}

// fig3_14: execution time w.r.t. S with fragments F=2.
func fig3_14(cfg Config) *Report {
	rep := &Report{ID: "fig3.14", Title: "Query Execution Time w.r.t. S",
		XLabel: "S", Metric: "ms/query"}
	points := map[string][]Point{}
	for _, s := range []int{3, 6, 9, 12} {
		tb := dataset.Synthetic(cfg.T(3_000_000), s, 2, 20, table.Uniform, cfg.Seed)
		env := newCh3Env(tb, gridcube.Config{FragmentSize: 2})
		queries := ch3Workload(cfg.rng(int64(s)), tb, cfg.Queries, 3, 2, 1, 10)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("S=%d", s), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	// Rename the cube series to match the thesis legend.
	rep.Series[0].Name = "ranking-fragments"
	return rep
}

// fig3_15: execution time on (cloned) Forest CoverType data w.r.t. k.
func fig3_15(cfg Config) *Report {
	tb := dataset.ForestCover(cfg.T(3_486_072), cfg.Seed)
	env := newCh3Env(tb, gridcube.Config{FragmentSize: 3})
	rep := &Report{ID: "fig3.15", Title: "Query Execution Time on Real Data",
		XLabel: "k", Metric: "ms/query",
		Notes: []string{"synthetic CoverType clone (internal/dataset.ForestCover)"}}
	points := map[string][]Point{}
	for _, k := range []int{5, 10, 15, 20} {
		queries := ch3Workload(cfg.rng(int64(k)), tb, cfg.Queries, 3, 3, 1, k)
		for name, m := range env.measure(queries, cfg) {
			points[name] = append(points[name], Point{X: fmt.Sprintf("k=%d", k), Value: m.ms()})
		}
	}
	rep.Series = timeSeries(points)
	rep.Series[0].Name = "ranking-fragments"
	return rep
}
