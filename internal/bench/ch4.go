package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ch4Data is the default §4.4.1 synthetic configuration: Db = Dp = 3,
// C = 100, uniform.
func ch4Data(cfg Config, thesisRows int) *table.Table {
	return dataset.Synthetic(cfg.T(thesisRows), 3, 3, 100, table.Uniform, cfg.Seed)
}

// fullTree bulk-loads the R-tree over every ranking dimension of tb, on its
// observed domain: the partition the signature cube and the ranking-first
// baseline share.
func fullTree(tb *table.Table) *rtree.Tree {
	dims := make([]int, tb.Schema().R())
	for i := range dims {
		dims[i] = i
	}
	return rtree.Bulk(tb, dims, ranking.NewBox(tb.RankBounds()), rtree.Config{})
}

// ch4Build is figs. 4.8 and 4.9: construction time, or materialized size,
// w.r.t. T for the signature cube (P-Cube), the R-tree partition, and the
// baseline's B-tree indexes.
func ch4Build(size bool) func(context.Context, Config, *Report) {
	return func(_ context.Context, cfg Config, rep *Report) {
		rep.XLabel = "T (thesis rows)"
		for _, millions := range []int{1, 5, 10} {
			tb := ch4Data(cfg, millions*1_000_000)
			start := time.Now()
			tree := fullTree(tb)
			treeMS := millis(time.Since(start))
			start = time.Now()
			cube := sigcube.BuildOnTree(tb, tree, sigcube.Config{})
			cubeMS := millis(time.Since(start))
			start = time.Now()
			bf := baselines.NewBooleanFirst(baselines.NewHeapFile(tb, 0))
			bfMS := millis(time.Since(start))
			v := [3]float64{cubeMS, treeMS, bfMS}
			if size {
				v = [3]float64{mb(cube.SizeBytes()), mb(tree.Store().Bytes()), mb(bf.IndexSizeBytes())}
			}
			for i, name := range []string{"P-Cube", "R-tree", "B-tree"} {
				rep.add(name, Point{X: fmt.Sprintf("%dM", millions), Value: v[i]})
			}
		}
	}
}

// fig4_10: signature size, baseline vs adaptive coding, w.r.t. boolean
// cardinality C.
func fig4_10(_ context.Context, cfg Config, rep *Report) {
	rep.XLabel = "cardinality"
	for _, c := range []int{10, 100, 1000} {
		tb := dataset.Synthetic(cfg.T(1_000_000), 3, 3, c, table.Uniform, cfg.Seed)
		tree := fullTree(tb)
		x := fmt.Sprintf("C=%d", c)
		rep.add("Baseline", Point{X: x, Value: mb(sigcube.BuildOnTree(tb, tree, sigcube.Config{BaselineCoding: true}).SizeBytes())})
		rep.add("Compress", Point{X: x, Value: mb(sigcube.BuildOnTree(tb, tree, sigcube.Config{}).SizeBytes())})
	}
}

// fig4_11: incremental update cost w.r.t. number of inserted tuples, per
// base size.
func fig4_11(_ context.Context, cfg Config, rep *Report) {
	rep.XLabel = "inserted tuples"
	for _, millions := range []int{1, 5, 10} {
		tb := ch4Data(cfg, millions*1_000_000)
		cube := sigcube.Build(tb, sigcube.Config{})
		rng := cfg.rng(int64(millions))
		for _, batch := range []int{1, 10, 100} {
			start := time.Now()
			for i := 0; i < batch; i++ {
				sel := make([]int32, tb.Schema().S())
				for d := range sel {
					sel[d] = int32(rng.Intn(tb.Schema().SelCard[d]))
				}
				rank := make([]float64, tb.Schema().R())
				for d := range rank {
					rank[d] = rng.Float64()
				}
				cube.Insert(sel, rank, stats.New())
			}
			rep.add(fmt.Sprintf("%dM", millions), Point{X: fmt.Sprintf("%d", batch), Value: millis(time.Since(start))})
		}
	}
}

// ch4Funcs are the three controlled query functions of §4.4.2.
func ch4Funcs(cfg Config, trial int) map[string]ranking.Func {
	rng := cfg.rng(int64(trial) * 13)
	linear := ranking.Linear([]int{0, 1, 2},
		[]float64{rng.Float64() + 0.1, rng.Float64() + 0.1, rng.Float64() + 0.1})
	distance := ranking.SqDist([]int{0, 1, 2},
		[]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	general := ranking.General(ranking.Sqr(ranking.Sub(
		ranking.Scale(2, ranking.Var(0)),
		ranking.Add(ranking.Var(1), ranking.Var(2)))))
	return map[string]ranking.Func{"linear": linear, "distance": distance, "general": general}
}

// sigTopK is a signature cube as a competitor over one workload.
func sigTopK(name string, cube *sigcube.Cube, conds []core.Cond, f func(qi int) ranking.Func, k int) method {
	return method{name, func(qi int, ctr *stats.Counters) {
		_, err := cube.TopK(conds[qi], f(qi), k, ctr)
		must(err)
	}}
}

// ch4Env is the chapter's query-time comparison over the 1M-row default:
// boolean-first, ranking-first and the signature cube, the last two over one
// R-tree.
type ch4Env struct {
	boolean *baselines.BooleanFirst
	ranking *baselines.RankingFirst
	cube    *sigcube.Cube
}

func newCh4Env(cfg Config) *ch4Env {
	tb := ch4Data(cfg, 1_000_000)
	tree := fullTree(tb)
	h := baselines.NewHeapFile(tb, 0)
	return &ch4Env{
		boolean: baselines.NewBooleanFirst(h),
		ranking: baselines.NewRankingFirst(h, tree),
		cube:    sigcube.BuildOnTree(tb, tree, sigcube.Config{}),
	}
}

// ch4Conds draws n one-dimension predicates over ch4Data's three boolean
// dimensions.
func ch4Conds(rng *rand.Rand, n int) []core.Cond {
	conds := make([]core.Cond, n)
	for i := range conds {
		conds[i] = core.Cond{rng.Intn(3): int32(rng.Intn(100))}
	}
	return conds
}

// methods draws one workload — a one-dimension predicate and a function of
// the named family per query — and returns Boolean, Ranking and Signature
// over it.
func (e *ch4Env) methods(cfg Config, rng *rand.Rand, fname string, k int) []method {
	conds := ch4Conds(rng, cfg.Queries)
	funcs := make([]ranking.Func, cfg.Queries)
	for i := range funcs {
		funcs[i] = ch4Funcs(cfg, i)[fname]
	}
	return []method{
		{"Boolean", func(qi int, ctr *stats.Counters) { e.boolean.TopK(conds[qi], funcs[qi], k, ctr) }},
		{"Ranking", func(qi int, ctr *stats.Counters) { e.ranking.TopK(conds[qi], funcs[qi], k, ctr) }},
		sigTopK("Signature", e.cube, conds, func(qi int) ranking.Func { return funcs[qi] }, k),
	}
}

// fig4_12: execution time w.r.t. k: Boolean vs Ranking vs Signature.
func fig4_12(ctx context.Context, cfg Config, rep *Report) {
	env := newCh4Env(cfg)
	sweep(ctx, rep, cfg.Queries, "k", "k=%d", []int{10, 20, 50, 100}, func(k int) []method {
		return env.methods(cfg, cfg.rng(int64(k)), "linear", k)
	})
}

// fig4_13: R-tree block accesses per function type (k = 100): Ranking vs
// Signature.
func fig4_13(ctx context.Context, cfg Config, rep *Report) {
	env := newCh4Env(cfg)
	sweep(ctx, rep, cfg.Queries, "function", "%s", []string{"linear", "distance", "general"}, func(fname string) []method {
		return env.methods(cfg, cfg.rng(int64(len(fname))), fname, 100)[1:]
	})
}
