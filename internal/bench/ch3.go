package bench

import (
	"context"
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
	cubeName string // the thesis legend's name for the cube
	cube     *gridcube.Cube
	bl       *baselines.BooleanFirst
	rm       *baselines.RankMapping
}

func newCh3Env(tb *table.Table, cubeCfg gridcube.Config) *ch3Env {
	e := &ch3Env{
		cubeName: "ranking-cube",
		cube:     gridcube.Build(tb, cubeCfg),
		bl:       baselines.NewBooleanFirst(baselines.NewHeapFile(tb, 0)),
		rm:       baselines.NewRankMapping(tb, 0),
	}
	if cubeCfg.FragmentSize > 0 {
		e.cubeName = "ranking-fragments"
	}
	return e
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

// gridTopK is a grid cube as a competitor over one workload.
func gridTopK(name string, cube *gridcube.Cube, queries []ch3Query) method {
	return method{name, func(qi int, ctr *stats.Counters) {
		q := queries[qi]
		_, err := cube.TopK(gridcube.Query{Cond: q.cond, F: q.f, K: q.k}, ctr)
		must(err)
	}}
}

// methods returns the chapter's three competitors over one workload.
func (e *ch3Env) methods(queries []ch3Query) []method {
	return []method{
		gridTopK(e.cubeName, e.cube, queries),
		{"rank-mapping", func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			e.rm.TopK(q.cond, q.f, q.k, ctr)
		}},
		{"baseline", func(qi int, ctr *stats.Counters) {
			q := queries[qi]
			e.bl.TopK(q.cond, q.f, q.k, ctr)
		}},
	}
}

// ch3Data is the chapter's default synthetic relation (Table 3.9: T = 3M,
// C = 20, uniform) with s selection and r ranking dimensions.
func ch3Data(cfg Config, s, r int) *table.Table {
	return dataset.Synthetic(cfg.T(3_000_000), s, r, 20, table.Uniform, cfg.Seed)
}

// fig3_4: execution time w.r.t. k on the default synthetic data.
func fig3_4(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 3, 2)
	env := newCh3Env(tb, gridcube.Config{})
	rep.Notes = []string{fmt.Sprintf("T=%d (thesis 3M scaled by %.2g)", tb.Len(), cfg.Scale)}
	sweep(ctx, rep, cfg.Queries, "k", "k=%d", []int{5, 10, 15, 20}, func(k int) []method {
		return env.methods(ch3Workload(cfg.rng(int64(k)), tb, cfg.Queries, 2, 2, 1, k))
	})
}

// fig3_5: execution time w.r.t. query skewness u.
func fig3_5(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 3, 2)
	env := newCh3Env(tb, gridcube.Config{})
	sweep(ctx, rep, cfg.Queries, "skewness u", "u=%g", []float64{1, 2, 3, 4, 5}, func(u float64) []method {
		return env.methods(ch3Workload(cfg.rng(int64(u*7)), tb, cfg.Queries, 2, 2, u, 10))
	})
}

// fig3_6: execution time w.r.t. r, the number of ranking dimensions in the
// function, on 4-ranking-dimension data.
func fig3_6(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 3, 4)
	env := newCh3Env(tb, gridcube.Config{})
	sweep(ctx, rep, cfg.Queries, "r", "r=%d", []int{2, 3, 4}, func(r int) []method {
		return env.methods(ch3Workload(cfg.rng(int64(r)), tb, cfg.Queries, 2, r, 1, 10))
	})
}

// fig3_7: execution time w.r.t. database size T.
func fig3_7(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "T (thesis rows)", "%dM", []int{1, 2, 3, 5, 10}, func(millions int) []method {
		tb := dataset.Synthetic(cfg.T(millions*1_000_000), 3, 2, 20, table.Uniform, cfg.Seed)
		return newCh3Env(tb, gridcube.Config{}).methods(ch3Workload(cfg.rng(int64(millions)), tb, cfg.Queries, 2, 2, 1, 10))
	})
}

// fig3_8: execution time w.r.t. selection-dimension cardinality C.
func fig3_8(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "cardinality", "C=%d", []int{10, 20, 50, 100}, func(c int) []method {
		tb := dataset.Synthetic(cfg.T(3_000_000), 3, 2, c, table.Uniform, cfg.Seed)
		return newCh3Env(tb, gridcube.Config{}).methods(ch3Workload(cfg.rng(int64(c)), tb, cfg.Queries, 2, 2, 1, 10))
	})
}

// fig3_9: execution time w.r.t. number of selection conditions s.
func fig3_9(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 4, 2)
	env := newCh3Env(tb, gridcube.Config{})
	sweep(ctx, rep, cfg.Queries, "s", "s=%d", []int{2, 3, 4}, func(s int) []method {
		return env.methods(ch3Workload(cfg.rng(int64(s)), tb, cfg.Queries, s, 2, 1, 10))
	})
}

// fig3_10: ranking-cube execution time w.r.t. base block size.
func fig3_10(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 3, 2)
	sweep(ctx, rep, cfg.Queries, "block size", "B=%d", []int{100, 200, 500, 1000}, func(b int) []method {
		cube := gridcube.Build(tb, gridcube.Config{BlockSize: b})
		return []method{gridTopK("ranking-cube", cube, ch3Workload(cfg.rng(int64(b)), tb, cfg.Queries, 2, 2, 1, 10))}
	})
}

// fig3_11: space usage w.r.t. number of selection dimensions (fragments
// F=2 vs the baselines' index space).
func fig3_11(_ context.Context, cfg Config, rep *Report) {
	rep.XLabel = "S"
	rep.Notes = []string{"RF = ranking fragments (F=2) incl. base block table; RM/BL = index sizes incl. heap file"}
	for _, s := range []int{3, 6, 9, 12} {
		tb := ch3Data(cfg, s, 2)
		heapBytes := int64(tb.Len() * tb.RowBytes())
		x := fmt.Sprintf("S=%d", s)
		rep.add("RF", Point{X: x, Value: mb(gridcube.Build(tb, gridcube.Config{FragmentSize: 2}).SizeBytes() + heapBytes)})
		rep.add("RM", Point{X: x, Value: mb(baselines.NewRankMapping(tb, 0).IndexSizeBytes() + heapBytes)})
		rep.add("BL", Point{X: x, Value: mb(baselines.NewBooleanFirst(baselines.NewHeapFile(tb, 0)).IndexSizeBytes() + heapBytes)})
	}
}

// fig3_12: execution time w.r.t. the number of covering fragments.
func fig3_12(ctx context.Context, cfg Config, rep *Report) {
	cube := gridcube.Build(ch3Data(cfg, 12, 2), gridcube.Config{FragmentSize: 3})
	rep.Notes = []string{"fragments of size 3 over 12 dims; 3-condition queries spanning 1, 2, or 3 fragments"}
	// With groups {0,1,2},{3,4,5},{6,7,8},{9,10,11}: conds {0,1,2} → 1
	// fragment, {0,1,3} → 2, {0,3,6} → 3.
	condDims := [][]int{{0, 1, 2}, {0, 1, 3}, {0, 3, 6}}
	sweep(ctx, rep, cfg.Queries, "covering fragments", "%d", []int{1, 2, 3}, func(nf int) []method {
		rng := cfg.rng(int64(nf - 1))
		return []method{{"ranking-fragments", func(qi int, ctr *stats.Counters) {
			cond := core.Cond{}
			for _, d := range condDims[nf-1] {
				cond[d] = int32(rng.Intn(20))
			}
			_, err := cube.TopK(gridcube.Query{Cond: cond, F: ranking.Sum(0, 1), K: 10}, ctr)
			must(err)
		}}}
	})
}

// fig3_13: execution time w.r.t. fragment size F.
func fig3_13(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 12, 2)
	sweep(ctx, rep, cfg.Queries, "F", "F=%d", []int{1, 2, 3}, func(f int) []method {
		cube := gridcube.Build(tb, gridcube.Config{FragmentSize: f})
		return []method{gridTopK("ranking-fragments", cube, ch3Workload(cfg.rng(int64(f)), tb, cfg.Queries, 3, 2, 1, 10))}
	})
}

// fig3_14: execution time w.r.t. S with fragments F=2.
func fig3_14(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "S", "S=%d", []int{3, 6, 9, 12}, func(s int) []method {
		tb := ch3Data(cfg, s, 2)
		return newCh3Env(tb, gridcube.Config{FragmentSize: 2}).methods(ch3Workload(cfg.rng(int64(s)), tb, cfg.Queries, 3, 2, 1, 10))
	})
}

// fig3_15: execution time on (cloned) Forest CoverType data w.r.t. k.
func fig3_15(ctx context.Context, cfg Config, rep *Report) {
	tb := dataset.ForestCover(cfg.T(3_486_072), cfg.Seed)
	env := newCh3Env(tb, gridcube.Config{FragmentSize: 3})
	rep.Notes = []string{"synthetic CoverType clone (internal/dataset.ForestCover)"}
	sweep(ctx, rep, cfg.Queries, "k", "k=%d", []int{5, 10, 15, 20}, func(k int) []method {
		return env.methods(ch3Workload(cfg.rng(int64(k)), tb, cfg.Queries, 3, 3, 1, k))
	})
}
