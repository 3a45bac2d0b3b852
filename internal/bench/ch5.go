package bench

import (
	"context"
	"fmt"
	"time"

	"rankcube/internal/baselines"
	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/hindex"
	"rankcube/internal/indexmerge"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ch5Env holds two B+-tree indices over a 2-ranking-dimension relation plus
// the relation itself, for the table-scan competitor, and the join-signature,
// with the time the latter took to build (fig. 5.21).
type ch5Env struct {
	idx     []hindex.Index
	js      *indexmerge.JoinSignature
	jsBuild time.Duration
	tb      *table.Table
}

func newCh5Env(cfg Config, thesisRows int) *ch5Env {
	tb := dataset.Synthetic(cfg.T(thesisRows), 1, 2, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(2)
	idx := []hindex.Index{
		btree.Build(tb, 0, dom, btree.Config{}),
		btree.Build(tb, 1, dom, btree.Config{}),
	}
	start := time.Now()
	js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
	must(err)
	return &ch5Env{idx: idx, js: js, jsBuild: time.Since(start), tb: tb}
}

// ch5Func builds one of the §5.4.2 controlled functions.
func ch5Func(cfg Config, name string, trial int) ranking.Func {
	rng := cfg.rng(int64(trial)*31 + int64(len(name)))
	switch name {
	case "fs":
		return ranking.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
	case "fg":
		return ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	default: // fc
		lo := rng.Float64() * 0.7
		return ranking.Constrained(ranking.Sum(0, 1), 1, lo, lo+0.2)
	}
}

// merge is one index-merge configuration as a competitor: top-k of f(qi)
// over idx.
func merge(name string, idx []hindex.Index, f func(qi int) ranking.Func, k int, opts indexmerge.Options) method {
	return method{name, func(qi int, ctr *stats.Counters) {
		_, err := indexmerge.TopK(idx, f(qi), k, opts, ctr)
		must(err)
	}}
}

// mergeMethods returns the chapter's four competitors over one set of
// indices: the table scan (TS), the basic merge (BL), progressive expansion
// (PE) and PE with join-signature pruning (PE+SIG).
func mergeMethods(idx []hindex.Index, js indexmerge.Pruner, tb *table.Table, f func(qi int) ranking.Func, k int) []method {
	ts := baselines.NewTableScan(baselines.NewHeapFile(tb, 0))
	return []method{
		{"TS", func(qi int, ctr *stats.Counters) { ts.TopK(core.Cond{}, f(qi), k, ctr) }},
		merge("BL", idx, f, k, indexmerge.Options{Strategy: indexmerge.StrategyBL}),
		merge("PE", idx, f, k, indexmerge.Options{}),
		merge("PE+SIG", idx, f, k, indexmerge.Options{Pruner: js}),
	}
}

// methods is mergeMethods over the environment's B+-trees and the named
// function family.
func (e *ch5Env) methods(cfg Config, fname string, k int) []method {
	return mergeMethods(e.idx, e.js, e.tb, func(qi int) ranking.Func { return ch5Func(cfg, fname, qi) }, k)
}

// tbl5_1: basic vs improved index-merge on f = (A−B²)², top-100.
func tbl5_1(ctx context.Context, cfg Config, rep *Report) {
	env := newCh5Env(cfg, 1_000_000)
	f := func(int) ranking.Func {
		return ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	}
	sweep(ctx, rep, 1, "query", "%s", []string{"top-100"}, func(string) []method {
		return []method{
			merge("Basic", env.idx, f, 100, indexmerge.Options{Strategy: indexmerge.StrategyBL}),
			merge("Improved", env.idx, f, 100, indexmerge.Options{Strategy: indexmerge.StrategyPE, Pruner: env.js}),
		}
	})
}

// ch5OverK is figs. 5.7–5.9: execution time w.r.t. K for one function
// family; series TS, BL, PE, PE+SIG.
func ch5OverK(fname string) func(context.Context, Config, *Report) {
	return func(ctx context.Context, cfg Config, rep *Report) {
		env := newCh5Env(cfg, 1_000_000)
		sweep(ctx, rep, cfg.Queries, "k", "k=%d", []int{10, 20, 50, 100}, func(k int) []method {
			return env.methods(cfg, fname, k)
		})
	}
}

// ch5OverF is figs. 5.10–5.12: disk access, states generated and peak heap
// of the three merge configurations per function family at k = 100.
func ch5OverF(ctx context.Context, cfg Config, rep *Report) {
	env := newCh5Env(cfg, 1_000_000)
	sweep(ctx, rep, cfg.Queries, "function", "%s", []string{"fs", "fg", "fc"}, func(fname string) []method {
		return env.methods(cfg, fname, 100)[1:]
	})
}

// sqDistTo draws query qi's target point over the given attributes: fs, the
// squared distance to it.
func sqDistTo(cfg Config, attrs []int, seed func(qi int) int64) func(qi int) ranking.Func {
	return func(qi int) ranking.Func {
		rng := cfg.rng(seed(qi))
		target := make([]float64, len(attrs))
		for i := range target {
			target[i] = rng.Float64()
		}
		return ranking.SqDist(attrs, target)
	}
}

// fig5_13: execution time w.r.t. K on the (cloned) CoverType variation: 6
// attributes split across two 3-d R-trees.
func fig5_13(ctx context.Context, cfg Config, rep *Report) {
	tb := dataset.ForestCoverWide(cfg.T(1_162_024), cfg.Seed)
	dom := ranking.NewBox(tb.RankBounds())
	idx := []hindex.Index{
		rtree.Bulk(tb, []int{0, 1, 2}, dom, rtree.Config{}),
		rtree.Bulk(tb, []int{3, 4, 5}, dom, rtree.Config{}),
	}
	js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
	must(err)
	rep.Notes = []string{"synthetic CoverType clone, 6 attributes in two 3-d R-trees"}
	f := sqDistTo(cfg, []int{0, 1, 2, 3, 4, 5}, func(qi int) int64 { return int64(qi) * 17 })
	sweep(ctx, rep, cfg.Queries, "k", "k=%d", []int{10, 20, 50, 100}, func(k int) []method {
		return mergeMethods(idx, js, tb, f, k)
	})
}

// fig5_14: execution time w.r.t. per-R-tree dimensionality (two R-trees
// over 2d…8d data), k = 100.
func fig5_14(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "dims per R-tree", "%dd", []int{1, 2, 3, 4}, func(d int) []method {
		tb := dataset.Synthetic(cfg.T(1_000_000), 1, 2*d, 2, table.Uniform, cfg.Seed)
		dom := ranking.UnitBox(2 * d)
		attrs := make([]int, 2*d)
		for i := range attrs {
			attrs[i] = i
		}
		idx := []hindex.Index{
			rtree.Bulk(tb, attrs[:d], dom, rtree.Config{}),
			rtree.Bulk(tb, attrs[d:], dom, rtree.Config{}),
		}
		js, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
		must(err)
		f := sqDistTo(cfg, attrs, func(qi int) int64 { return int64(qi)*29 + int64(d) })
		m := mergeMethods(idx, js, tb, f, 100)
		return []method{m[0], m[2], m[3]} // the thesis plots no BL here
	})
}

// ch5ThreeWay is figs. 5.15–5.17: 3-way merge time, peak heap and disk
// access w.r.t. K over three B+-trees for PE alone, PE with the three
// pairwise 2d join-signatures, and PE with the 3d one.
func ch5ThreeWay(ctx context.Context, cfg Config, rep *Report) {
	tb := dataset.Synthetic(cfg.T(1_000_000), 1, 3, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(3)
	var idx []hindex.Index
	for d := 0; d < 3; d++ {
		idx = append(idx, btree.Build(tb, d, dom, btree.Config{}))
	}
	sig3, err := indexmerge.BuildJoinSignature(idx, tb.Len(), indexmerge.JoinSigConfig{})
	must(err)
	pairs := map[[2]int]*indexmerge.JoinSignature{}
	for _, pr := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		pairs[pr], err = indexmerge.BuildJoinSignature([]hindex.Index{idx[pr[0]], idx[pr[1]]}, tb.Len(), indexmerge.JoinSigConfig{})
		must(err)
	}
	sig2 := &indexmerge.PairwisePruner{Pairs: pairs}
	f := sqDistTo(cfg, []int{0, 1, 2}, func(qi int) int64 { return int64(qi) * 41 })
	sweep(ctx, rep, cfg.Queries, "k", "k=%d", []int{10, 20, 50, 100}, func(k int) []method {
		return []method{
			merge("PE", idx, f, k, indexmerge.Options{}),
			merge("PE+2dSIG", idx, f, k, indexmerge.Options{Pruner: sig2}),
			merge("PE+3dSIG", idx, f, k, indexmerge.Options{Pruner: sig3}),
		}
	})
}

// fig5_18: partial attributes in ranking: the function references only a
// subset of the indexed dimensions.
func fig5_18(ctx context.Context, cfg Config, rep *Report) {
	tb := dataset.Synthetic(cfg.T(1_000_000), 1, 4, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(4)
	idx := []hindex.Index{
		rtree.Bulk(tb, []int{0, 1}, dom, rtree.Config{}),
		rtree.Bulk(tb, []int{2, 3}, dom, rtree.Config{}),
	}
	sweep(ctx, rep, cfg.Queries, "attrs in f", "r=%d", []int{1, 2, 3, 4}, func(nattr int) []method {
		f := sqDistTo(cfg, []int{0, 1, 2, 3}[:nattr], func(qi int) int64 { return int64(qi)*53 + int64(nattr) })
		return []method{merge("PE", idx, f, 100, indexmerge.Options{})}
	})
}

// fig5_19: execution time w.r.t. index node (page) size.
func fig5_19(ctx context.Context, cfg Config, rep *Report) {
	tb := dataset.Synthetic(cfg.T(1_000_000), 1, 2, 2, table.Uniform, cfg.Seed)
	dom := ranking.UnitBox(2)
	sweep(ctx, rep, cfg.Queries, "page bytes", "%dB", []int{1024, 2048, 4096, 8192, 16384}, func(page int) []method {
		idx := []hindex.Index{
			btree.Build(tb, 0, dom, btree.Config{PageSize: page}),
			btree.Build(tb, 1, dom, btree.Config{PageSize: page}),
		}
		f := func(qi int) ranking.Func { return ch5Func(cfg, "fs", qi) }
		return []method{merge("PE", idx, f, 100, indexmerge.Options{})}
	})
}

// fig5_20: execution time w.r.t. T.
func fig5_20(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "T (thesis rows)", "%dM", []int{1, 2, 5, 10}, func(millions int) []method {
		return newCh5Env(cfg, millions*1_000_000).methods(cfg, "fs", 100)[2:]
	})
}

// ch5JoinSig is figs. 5.21 and 5.22: join-signature construction time, or
// size, w.r.t. T.
func ch5JoinSig(size bool) func(context.Context, Config, *Report) {
	return func(_ context.Context, cfg Config, rep *Report) {
		rep.XLabel = "T (thesis rows)"
		for _, millions := range []int{1, 2, 5, 10} {
			env := newCh5Env(cfg, millions*1_000_000)
			v := millis(env.jsBuild)
			if size {
				v = mb(env.js.SizeBytes())
			}
			rep.add("join-signature", Point{X: fmt.Sprintf("%dM", millions), Value: v})
		}
	}
}
