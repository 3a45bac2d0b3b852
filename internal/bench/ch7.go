package bench

import (
	"fmt"

	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/skyline"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func init() {
	register("fig7.3", func(c Config) *Report { return fig7_sizeSweep(c, "fig7.3", metricTime) })
	register("fig7.4", func(c Config) *Report { return fig7_sizeSweep(c, "fig7.4", metricDisk) })
	register("fig7.5", func(c Config) *Report { return fig7_sizeSweep(c, "fig7.5", metricHeap) })
	register("fig7.6", fig7_6)
	register("fig7.7", fig7_7)
	register("fig7.8", fig7_8)
	register("fig7.9", fig7_9)
	register("fig7.10", fig7_10)
	register("fig7.11", fig7_11)
	register("fig7.12", fig7_12)
	register("fig7.13", fig7_13)
	register("fig7.14", fig7_14)
}

// ch7Env is a signature cube plus skyline engine and the two baselines:
// boolean-first (filter + block-nested-loop skyline) and ranking-first
// (BBS without signatures, random-access verification).
type ch7Env struct {
	tb     *table.Table
	cube   *sigcube.Cube
	engine *skyline.Engine
	heap   *baselines.HeapFile
}

func newCh7Env(tb *table.Table, fanout int) *ch7Env {
	cube := sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: fanout}})
	return &ch7Env{
		tb:     tb,
		cube:   cube,
		engine: skyline.NewEngine(cube),
		heap:   baselines.NewHeapFile(tb, 0),
	}
}

// booleanSkyline: scan + filter + BNL skyline (the Boolean baseline).
func (e *ch7Env) booleanSkyline(q skyline.Query, ctr *stats.Counters) int {
	type pt struct{ coord []float64 }
	var window []pt
	scratch := make([]float64, 0, len(q.Dims))
	core.Scan(e.tb, e.heap.NumPages(), nil, q.Cond, ctr, func(_ table.TID, row []float64) {
		coord := append([]float64(nil), q.Point(row, scratch)...)
		dominated := false
		out := window[:0]
		for _, w := range window {
			if dominatesCoord(w.coord, coord) {
				dominated = true
				out = window
				break
			}
			if !dominatesCoord(coord, w.coord) {
				out = append(out, w)
			}
		}
		window = out
		if !dominated {
			window = append(window, pt{coord})
		}
	})
	return len(window)
}

func dominatesCoord(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// verifyTester verifies the predicate only at the tuple level through
// random accesses (the Ranking baseline).
type verifyTester struct {
	env    *ch7Env
	cond   core.Cond
	buf    *stats.Counters
	height int
	pages  map[int32]bool
}

func (v *verifyTester) Test(path []int) bool {
	if len(path) < v.height {
		return true
	}
	tid, ok := v.env.cube.Tree().TIDAt(path)
	if !ok {
		return false
	}
	page := int32(v.env.heap.PageOf(tid))
	if !v.pages[page] {
		v.pages[page] = true
		v.buf.Read(stats.StructTable, 1)
	}
	return v.env.tb.Matches(tid, v.cond)
}

func (e *ch7Env) rankingSkyline(q skyline.Query, ctr *stats.Counters) int {
	vt := &verifyTester{env: e, cond: q.Cond, buf: ctr,
		height: e.cube.Tree().Height(), pages: map[int32]bool{}}
	res, _, err := e.engine.SkylineWithTester(q, vt, ctr)
	must(err)
	return len(res)
}

func (e *ch7Env) signatureSkyline(q skyline.Query, ctr *stats.Counters) int {
	res, _, err := e.engine.Skyline(q, ctr)
	must(err)
	return len(res)
}

// ch7Query draws a predicate over dimension 0 plus the skyline dims.
func ch7Query(cfg Config, tb *table.Table, qi, nPred, dims int) skyline.Query {
	rng := cfg.rng(int64(qi)*71 + int64(nPred))
	cond := core.Cond{}
	for _, d := range rng.Perm(tb.Schema().S())[:nPred] {
		cond[d] = int32(rng.Intn(tb.Schema().SelCard[d]))
	}
	sdims := make([]int, dims)
	for i := range sdims {
		sdims[i] = i
	}
	return skyline.Query{Cond: cond, Dims: sdims}
}

// fig7_sizeSweep: time / disk / heap w.r.t. T for the three methods.
func fig7_sizeSweep(cfg Config, id string, kind metricKind) *Report {
	titles := map[metricKind]string{
		metricTime: "Execution Time w.r.t. T",
		metricDisk: "Number of Disk Access w.r.t. T",
		metricHeap: "Peak Candidate Heap Size w.r.t. T",
	}
	metrics := map[metricKind]string{
		metricTime: "ms/query", metricDisk: "block reads/query", metricHeap: "max heap entries",
	}
	rep := &Report{ID: id, Title: titles[kind], XLabel: "T (thesis rows)", Metric: metrics[kind]}
	var bS, rS, sS Series
	bS.Name, rS.Name, sS.Name = "Boolean", "Ranking", "Signature"
	for _, millions := range []int{1, 2, 5} {
		tb := dataset.Synthetic(cfg.T(millions*1_000_000), 3, 3, 100, table.Uniform, cfg.Seed)
		env := newCh7Env(tb, 0)
		x := fmt.Sprintf("%dM", millions)
		addPoint := func(s *Series, exec func(qi int, ctr *stats.Counters)) {
			m := run(cfg, cfg.Queries, exec)
			var v float64
			switch kind {
			case metricTime:
				v = m.ms()
			case metricDisk:
				v = m.avgReads()
			case metricHeap:
				v = float64(m.counters.PeakHeap)
			}
			s.Points = append(s.Points, Point{X: x, Value: v})
		}
		addPoint(&bS, func(qi int, ctr *stats.Counters) {
			env.booleanSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		})
		addPoint(&rS, func(qi int, ctr *stats.Counters) {
			env.rankingSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		})
		addPoint(&sS, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		})
	}
	rep.Series = []Series{bS, rS, sS}
	return rep
}

// fig7_6: execution time w.r.t. boolean cardinality C.
func fig7_6(cfg Config) *Report {
	rep := &Report{ID: "fig7.6", Title: "Execution Time w.r.t. C",
		XLabel: "cardinality", Metric: "ms/query"}
	var bS, rS, sS Series
	bS.Name, rS.Name, sS.Name = "Boolean", "Ranking", "Signature"
	for _, c := range []int{10, 100, 1000} {
		tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, c, table.Uniform, cfg.Seed)
		env := newCh7Env(tb, 0)
		x := fmt.Sprintf("C=%d", c)
		bS.Points = append(bS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.booleanSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		}).ms()})
		rS.Points = append(rS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.rankingSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		}).ms()})
		sS.Points = append(sS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		}).ms()})
	}
	rep.Series = []Series{bS, rS, sS}
	return rep
}

// fig7_7: execution time w.r.t. data distribution S ∈ {E, C, A}.
func fig7_7(cfg Config) *Report {
	rep := &Report{ID: "fig7.7", Title: "Execution Time w.r.t. S",
		XLabel: "distribution", Metric: "ms/query"}
	var bS, rS, sS Series
	bS.Name, rS.Name, sS.Name = "Boolean", "Ranking", "Signature"
	for _, dist := range []table.Distribution{table.Uniform, table.Correlated, table.AntiCorrelated} {
		tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, 100, dist, cfg.Seed)
		env := newCh7Env(tb, 0)
		x := dist.String()
		bS.Points = append(bS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.booleanSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		}).ms()})
		rS.Points = append(rS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.rankingSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		}).ms()})
		sS.Points = append(sS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		}).ms()})
	}
	rep.Series = []Series{bS, rS, sS}
	return rep
}

// fig7_8: execution time w.r.t. the number of preference dimensions Dp.
func fig7_8(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 3, 4, 100, table.Uniform, cfg.Seed)
	env := newCh7Env(tb, 0)
	rep := &Report{ID: "fig7.8", Title: "Execution Time w.r.t. Dp",
		XLabel: "preference dims", Metric: "ms/query"}
	var sS Series
	sS.Name = "Signature"
	for _, dp := range []int{2, 3, 4} {
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, 1, dp), ctr)
		})
		sS.Points = append(sS.Points, Point{X: fmt.Sprintf("Dp=%d", dp), Value: m.ms()})
	}
	rep.Series = []Series{sS}
	return rep
}

// fig7_9: execution time w.r.t. R-tree fanout m.
func fig7_9(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, 100, table.Uniform, cfg.Seed)
	rep := &Report{ID: "fig7.9", Title: "Execution Time w.r.t. m",
		XLabel: "fanout", Metric: "ms/query"}
	var sS Series
	sS.Name = "Signature"
	for _, m := range []int{32, 64, 128, 204} {
		env := newCh7Env(tb, m)
		meas := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, 1, 2), ctr)
		})
		sS.Points = append(sS.Points, Point{X: fmt.Sprintf("m=%d", m), Value: meas.ms()})
	}
	rep.Series = []Series{sS}
	return rep
}

// fig7_10: execution time w.r.t. hardness: the number of preference
// dimensions drawn anti-correlated (larger skylines are harder).
func fig7_10(cfg Config) *Report {
	rep := &Report{ID: "fig7.10", Title: "Execution Time w.r.t. Hardness",
		XLabel: "anti-correlated dims", Metric: "ms/query",
		Notes: []string{"hardness h = number of preference dimensions drawn anti-correlated"}}
	var sS Series
	sS.Name = "Signature"
	n := cfg.T(1_000_000)
	for _, h := range []int{0, 1, 2, 3} {
		// Blend: h dims from an anti-correlated draw, the rest uniform.
		anti := dataset.Synthetic(n, 3, 3, 100, table.AntiCorrelated, cfg.Seed)
		tb := table.MustNew(anti.Schema())
		uni := dataset.Synthetic(n, 3, 3, 100, table.Uniform, cfg.Seed+1)
		sel := make([]int32, 3)
		rank := make([]float64, 3)
		for i := 0; i < n; i++ {
			tid := table.TID(i)
			for d := 0; d < 3; d++ {
				sel[d] = anti.Sel(tid, d)
				if d < h {
					rank[d] = anti.Rank(tid, d)
				} else {
					rank[d] = uni.Rank(tid, d)
				}
			}
			tb.Append(sel, rank)
		}
		env := newCh7Env(tb, 0)
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, 1, 3), ctr)
		})
		sS.Points = append(sS.Points, Point{X: fmt.Sprintf("h=%d", h), Value: m.ms()})
	}
	rep.Series = []Series{sS}
	return rep
}

// fig7_11: execution time w.r.t. the number of boolean predicates.
func fig7_11(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 4, 3, 20, table.Uniform, cfg.Seed)
	env := newCh7Env(tb, 0)
	rep := &Report{ID: "fig7.11", Title: "Execution Time w.r.t. Boolean Predicates",
		XLabel: "#predicates", Metric: "ms/query"}
	var bS, sS Series
	bS.Name, sS.Name = "Boolean", "Signature"
	for _, np := range []int{0, 1, 2, 3} {
		x := fmt.Sprintf("%d", np)
		bS.Points = append(bS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.booleanSkyline(ch7Query(cfg, tb, qi, np, 2), ctr)
		}).ms()})
		sS.Points = append(sS.Points, Point{X: x, Value: run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, tb, qi, np, 2), ctr)
		}).ms()})
	}
	rep.Series = []Series{bS, sS}
	return rep
}

// timedTester wraps a tester, accumulating wall-clock time spent in
// signature probes (fig. 7.12's load-vs-query breakdown).
type timedTester struct {
	inner signature.Tester
	ctr   *stats.Counters
}

func (t *timedTester) Test(path []int) bool {
	start := time.Now()
	ok := t.inner.Test(path)
	t.ctr.AddPhase("signature", time.Since(start))
	return ok
}

// fig7_12: signature loading time vs query time.
func fig7_12(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, 100, table.Uniform, cfg.Seed)
	env := newCh7Env(tb, 0)
	rep := &Report{ID: "fig7.12", Title: "Signature Loading Time vs. Query Time",
		XLabel: "#predicates", Metric: "ms/query"}
	var sig, total Series
	sig.Name, total.Name = "signature-time", "total-time"
	for _, np := range []int{1, 2, 3} {
		agg := stats.New()
		start := time.Now()
		for qi := 0; qi < cfg.Queries; qi++ {
			q := ch7Query(cfg, tb, qi, np, 2)
			inner, any, err := env.cube.TesterFor(q.Cond, agg)
			must(err)
			if !any {
				continue
			}
			tt := &timedTester{inner: inner, ctr: agg}
			if _, _, err := env.engine.SkylineWithTester(q, tt, agg); err != nil {
				must(err)
			}
		}
		elapsed := time.Since(start)
		x := fmt.Sprintf("%d", np)
		sig.Points = append(sig.Points, Point{X: x,
			Value: ms(agg.Phase("signature")) / float64(cfg.Queries)})
		total.Points = append(total.Points, Point{X: x,
			Value: ms(elapsed) / float64(cfg.Queries)})
	}
	rep.Series = []Series{sig, total}
	return rep
}

// fig7_13: drill-down reuse vs a fresh query.
func fig7_13(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, 20, table.Uniform, cfg.Seed)
	env := newCh7Env(tb, 0)
	rep := &Report{ID: "fig7.13", Title: "Drill-Down Query vs. New Query",
		XLabel: "query", Metric: "ms/query"}
	var drill, fresh Series
	drill.Name, fresh.Name = "drill-down", "new-query"
	for qi := 0; qi < cfg.Queries; qi++ {
		rng := cfg.rng(int64(qi) * 83)
		base := skyline.Query{Cond: core.Cond{0: int32(rng.Intn(20))}, Dims: []int{0, 1}}
		extra := core.Cond{1: int32(rng.Intn(20))}
		_, snap, err := env.engine.Skyline(base, stats.New())
		must(err)
		start := time.Now()
		if _, _, err := env.engine.DrillDown(snap, extra, stats.New()); err != nil {
			must(err)
		}
		dTime := time.Since(start)
		tight := skyline.Query{Cond: core.Cond{0: base.Cond[0], 1: extra[1]}, Dims: []int{0, 1}}
		start = time.Now()
		if _, _, err := env.engine.Skyline(tight, stats.New()); err != nil {
			must(err)
		}
		fTime := time.Since(start)
		x := fmt.Sprintf("q%d", qi+1)
		drill.Points = append(drill.Points, Point{X: x, Value: ms(dTime)})
		fresh.Points = append(fresh.Points, Point{X: x, Value: ms(fTime)})
	}
	rep.Series = []Series{drill, fresh}
	return rep
}

// fig7_14: roll-up reuse vs a fresh query.
func fig7_14(cfg Config) *Report {
	tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, 20, table.Uniform, cfg.Seed)
	env := newCh7Env(tb, 0)
	rep := &Report{ID: "fig7.14", Title: "Roll-Up Query vs. New Query",
		XLabel: "query", Metric: "ms/query"}
	var roll, fresh Series
	roll.Name, fresh.Name = "roll-up", "new-query"
	for qi := 0; qi < cfg.Queries; qi++ {
		rng := cfg.rng(int64(qi) * 89)
		base := skyline.Query{
			Cond: core.Cond{0: int32(rng.Intn(20)), 1: int32(rng.Intn(20))},
			Dims: []int{0, 1},
		}
		_, snap, err := env.engine.Skyline(base, stats.New())
		must(err)
		start := time.Now()
		if _, _, err := env.engine.RollUp(snap, []int{1}, stats.New()); err != nil {
			must(err)
		}
		rTime := time.Since(start)
		relaxed := skyline.Query{Cond: core.Cond{0: base.Cond[0]}, Dims: []int{0, 1}}
		start = time.Now()
		if _, _, err := env.engine.Skyline(relaxed, stats.New()); err != nil {
			must(err)
		}
		fTime := time.Since(start)
		x := fmt.Sprintf("q%d", qi+1)
		roll.Points = append(roll.Points, Point{X: x, Value: ms(rTime)})
		fresh.Points = append(fresh.Points, Point{X: x, Value: ms(fTime)})
	}
	rep.Series = []Series{roll, fresh}
	return rep
}
