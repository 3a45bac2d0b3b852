package bench

import (
	"context"
	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/bitvec"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/pager"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/skyline"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

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

// ch7Data is the chapter's default synthetic relation (3 boolean and 3
// preference dimensions, uniform) at the given size and cardinality.
func ch7Data(cfg Config, thesisRows, card int) *table.Table {
	return dataset.Synthetic(cfg.T(thesisRows), 3, 3, card, table.Uniform, cfg.Seed)
}

// booleanSkyline: scan + filter + BNL skyline (the Boolean baseline), the
// engine's own fallback.
func (e *ch7Env) booleanSkyline(q skyline.Query, ctr *stats.Counters) int {
	res, _, err := e.engine.ScanSkyline(q, ctr)
	must(err)
	return len(res)
}

// rankingSkyline: the search with no boolean pruning at all, the predicate
// verified by a random access for each tuple about to enter the skyline, a
// page charged the first time it is touched (the Ranking baseline).
func (e *ch7Env) rankingSkyline(q skyline.Query, ctr *stats.Counters) int {
	pages := map[pager.PageID]bool{}
	verify := func(tid table.TID) bool {
		if page := e.heap.PageOf(tid); !pages[page] {
			pages[page] = true
			ctr.Read(stats.StructTable, 1)
		}
		return e.tb.Matches(tid, q.Cond)
	}
	res, _, err := e.engine.SkylineWithTester(q, signature.True{}, verify, ctr)
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

// methods returns the chapter's three competitors — Boolean, Ranking,
// Signature — over the workload of nPred-predicate skylines on dims
// preference dimensions.
func (e *ch7Env) methods(cfg Config, nPred, dims int) []method {
	q := func(qi int) skyline.Query { return ch7Query(cfg, e.tb, qi, nPred, dims) }
	return []method{
		{"Boolean", func(qi int, ctr *stats.Counters) { e.booleanSkyline(q(qi), ctr) }},
		{"Ranking", func(qi int, ctr *stats.Counters) { e.rankingSkyline(q(qi), ctr) }},
		{"Signature", func(qi int, ctr *stats.Counters) { e.signatureSkyline(q(qi), ctr) }},
	}
}

// ch7OverT is figs. 7.3–7.5: execution time, disk accesses and peak
// candidate heap w.r.t. T for the three methods.
func ch7OverT(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "T (thesis rows)", "%dM", []int{1, 2, 5}, func(millions int) []method {
		return newCh7Env(ch7Data(cfg, millions*1_000_000, 100), 0).methods(cfg, 1, 2)
	})
}

// fig7_6: execution time w.r.t. boolean cardinality C.
func fig7_6(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "cardinality", "C=%d", []int{10, 100, 1000}, func(c int) []method {
		return newCh7Env(ch7Data(cfg, 1_000_000, c), 0).methods(cfg, 1, 2)
	})
}

// fig7_7: execution time w.r.t. data distribution S ∈ {E, C, A}.
func fig7_7(ctx context.Context, cfg Config, rep *Report) {
	dists := []table.Distribution{table.Uniform, table.Correlated, table.AntiCorrelated}
	sweep(ctx, rep, cfg.Queries, "distribution", "%v", dists, func(dist table.Distribution) []method {
		tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, 100, dist, cfg.Seed)
		return newCh7Env(tb, 0).methods(cfg, 1, 2)
	})
}

// fig7_8: execution time w.r.t. the number of preference dimensions Dp.
func fig7_8(ctx context.Context, cfg Config, rep *Report) {
	env := newCh7Env(dataset.Synthetic(cfg.T(1_000_000), 3, 4, 100, table.Uniform, cfg.Seed), 0)
	sweep(ctx, rep, cfg.Queries, "preference dims", "Dp=%d", []int{2, 3, 4}, func(dp int) []method {
		return env.methods(cfg, 1, dp)[2:]
	})
}

// fig7_9: execution time w.r.t. R-tree fanout m.
func fig7_9(ctx context.Context, cfg Config, rep *Report) {
	tb := ch7Data(cfg, 1_000_000, 100)
	sweep(ctx, rep, cfg.Queries, "fanout", "m=%d", []int{32, 64, 128, 204}, func(m int) []method {
		return newCh7Env(tb, m).methods(cfg, 1, 2)[2:]
	})
}

// fig7_10: execution time w.r.t. hardness: the number of preference
// dimensions drawn anti-correlated (larger skylines are harder).
func fig7_10(ctx context.Context, cfg Config, rep *Report) {
	rep.Notes = []string{"hardness h = number of preference dimensions drawn anti-correlated"}
	n := cfg.T(1_000_000)
	anti := dataset.Synthetic(n, 3, 3, 100, table.AntiCorrelated, cfg.Seed)
	uni := dataset.Synthetic(n, 3, 3, 100, table.Uniform, cfg.Seed+1)
	sweep(ctx, rep, cfg.Queries, "anti-correlated dims", "h=%d", []int{0, 1, 2, 3}, func(h int) []method {
		// Blend: h dims from the anti-correlated draw, the rest uniform.
		tb := table.MustNew(anti.Schema())
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
		return newCh7Env(tb, 0).methods(cfg, 1, 3)[2:]
	})
}

// fig7_11: execution time w.r.t. the number of boolean predicates.
func fig7_11(ctx context.Context, cfg Config, rep *Report) {
	env := newCh7Env(dataset.Synthetic(cfg.T(1_000_000), 4, 3, 20, table.Uniform, cfg.Seed), 0)
	sweep(ctx, rep, cfg.Queries, "#predicates", "%d", []int{0, 1, 2, 3}, func(np int) []method {
		m := env.methods(cfg, np, 2)
		return []method{m[0], m[2]} // the thesis plots no Ranking series here
	})
}

// timedTester charges the wall clock of every boolean test to *elapsed
// (fig. 7.12's loading-vs-query breakdown).
type timedTester struct {
	signature.Tester
	elapsed *time.Duration
}

func (t timedTester) Test(path []int) bool {
	start := time.Now()
	ok := t.Tester.Test(path)
	*t.elapsed += time.Since(start)
	return ok
}

// timedProber is a timedTester over a stage of the cube's own tester: it
// forwards Probe as well, timed the same way, so the search it is handed to
// qualifies children a node at a time exactly as Engine.Skyline does.
type timedProber struct {
	timedTester
	stage signature.Prober
}

func (t timedProber) Probe(parent []int, live *bitvec.Bits) {
	start := time.Now()
	t.stage.Probe(parent, live)
	*t.elapsed += time.Since(start)
}

// timeTester wraps the cube's tester for one query so that the time spent in
// signature probes accumulates in *elapsed without changing the path the
// search takes: each stage of a probing tester is wrapped on its own and the
// stages are conjoined again; a tester with a Test-only part (a lossy cell)
// stays opaque, as it is to the engine.
func timeTester(inner signature.Tester, elapsed *time.Duration) signature.Tester {
	stages, ok := signature.Stages(inner)
	if !ok {
		return timedTester{inner, elapsed}
	}
	and := make(signature.And, len(stages))
	for i, s := range stages {
		and[i] = timedProber{timedTester{s, elapsed}, s}
	}
	return and
}

// fig7_12: signature loading time vs query time. One instrumented run per
// position yields both series: total-time is the whole query, signature-time
// the wall clock inside the tester's assembly and probes together with the
// signature reads they charged.
func fig7_12(ctx context.Context, cfg Config, rep *Report) {
	env := newCh7Env(ch7Data(cfg, 1_000_000, 100), 0)
	type spent struct {
		time  time.Duration
		reads *stats.Counters
	}
	var onSignatures []*spent // per position
	sweep(ctx, rep, cfg.Queries, "#predicates", "%d", []int{1, 2, 3}, func(np int) []method {
		sig := &spent{reads: stats.New()}
		onSignatures = append(onSignatures, sig)
		return []method{{"total-time", func(qi int, ctr *stats.Counters) {
			q := ch7Query(cfg, env.tb, qi, np, 2)
			// The tester charges its loads to a collector of its own, merged
			// into the query's once the search is over.
			loads := stats.New()
			start := time.Now()
			inner, any, err := env.cube.TesterFor(q.Cond, loads)
			sig.time += time.Since(start)
			must(err)
			if any {
				_, _, err = env.engine.SkylineWithTester(q, timeTester(inner, &sig.time), nil, ctr)
				must(err)
			}
			ctr.Merge(loads)
			sig.reads.Merge(loads)
		}}}
	})
	for i, sig := range onSignatures {
		total := rep.Series[0].Points[i]
		got := measure(total.Queries, sig.time, sig.reads)
		rep.add("signature-time", Point{X: total.X, Value: rep.plot(got), Measured: got})
	}
}

// ch7Navigate is figs. 7.13 and 7.14: answering a drill-down, or a roll-up,
// from the previous query's snapshot vs as a new query, one point per query.
// The wide query has one predicate and the tight one a second on top of it; a
// drill-down goes from wide to tight, a roll-up back.
func ch7Navigate(rollUp bool) func(context.Context, Config, *Report) {
	return func(ctx context.Context, cfg Config, rep *Report) {
		env := newCh7Env(ch7Data(cfg, 1_000_000, 20), 0)
		queries := make([]int, cfg.Queries)
		for i := range queries {
			queries[i] = i + 1
		}
		sweep(ctx, rep, 1, "query", "q%d", queries, func(q int) []method {
			seed, name := int64(83), "drill-down"
			if rollUp {
				seed, name = 89, "roll-up"
			}
			rng := cfg.rng(int64(q-1) * seed)
			a, b := int32(rng.Intn(20)), int32(rng.Intn(20))
			from := skyline.Query{Cond: core.Cond{0: a}, Dims: []int{0, 1}}
			to := skyline.Query{Cond: core.Cond{0: a, 1: b}, Dims: []int{0, 1}}
			if rollUp {
				from, to = to, from
			}
			_, snap, err := env.engine.Skyline(from, stats.New())
			must(err)
			return []method{
				{name, func(_ int, ctr *stats.Counters) {
					if rollUp {
						_, _, err = env.engine.RollUp(snap, []int{1}, ctr)
					} else {
						_, _, err = env.engine.DrillDown(snap, core.Cond{1: b}, ctr)
					}
					must(err)
				}},
				{"new-query", func(_ int, ctr *stats.Counters) { env.signatureSkyline(to, ctr) }},
			}
		})
	}
}
