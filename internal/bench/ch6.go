package bench

import (
	"context"

	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/joinquery"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
)

// ch6Env is a pair of relations with ranking cubes and join keys.
type ch6Env struct {
	r1, r2 *joinquery.Relation
}

func newCh6Env(cfg Config, thesisRows, keyCard int) *ch6Env {
	t1, t2, k1, k2 := dataset.JoinPair(cfg.T(thesisRows), 2, 2, 10, keyCard, cfg.Seed)
	c1 := sigcube.Build(t1, sigcube.Config{RTree: rtree.Config{}})
	c2 := sigcube.Build(t2, sigcube.Config{RTree: rtree.Config{}})
	return &ch6Env{
		r1: joinquery.NewRelation("R1", t1, c1, k1, keyCard),
		r2: joinquery.NewRelation("R2", t2, c2, k2, keyCard),
	}
}

func (e *ch6Env) query(cfg Config, qi, k int) joinquery.Query {
	rng := cfg.rng(int64(qi) * 61)
	return joinquery.Query{
		Parts: []joinquery.Part{
			{Rel: e.r1, Cond: core.Cond{0: int32(rng.Intn(10))}, F: ranking.Sum(0, 1)},
			{Rel: e.r2, Cond: core.Cond{1: int32(rng.Intn(10))},
				F: ranking.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})},
		},
		K: k,
	}
}

// methods returns the chapter's two plans for the top-10 join: the rank-aware
// SPJR executor over the cubes and join-then-rank, the executor's own
// exact-answer fallback.
func (e *ch6Env) methods(cfg Config) []method {
	return []method{
		{"ranking-cube", func(qi int, ctr *stats.Counters) {
			_, err := joinquery.Execute(e.query(cfg, qi, 10), joinquery.Options{}, ctr)
			must(err)
		}},
		{"join-then-rank", func(qi int, ctr *stats.Counters) {
			_, err := joinquery.BruteForce(e.query(cfg, qi, 10), ctr)
			must(err)
		}},
	}
}

// fig6_3: execution time w.r.t. join-key cardinalities.
func fig6_3(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "join-key cardinality", "%d", []int{10, 100, 1000, 10000}, func(keyCard int) []method {
		return newCh6Env(cfg, 300_000, keyCard).methods(cfg)
	})
}

// fig6_4: execution time w.r.t. database size.
func fig6_4(ctx context.Context, cfg Config, rep *Report) {
	sweep(ctx, rep, cfg.Queries, "T per relation (thesis rows)", "%dk", []int{100, 200, 500, 1000}, func(thousands int) []method {
		return newCh6Env(cfg, thousands*1000*10, 1000).methods(cfg)
	})
}
