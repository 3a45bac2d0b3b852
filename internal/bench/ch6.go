package bench

import (
	"fmt"
	"sort"

	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/joinquery"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func init() {
	register("fig6.3", fig6_3)
	register("fig6.4", fig6_4)
}

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

// joinThenRank is the conventional plan: filter both relations, hash-join
// completely, then rank — the comparison shape for the SPJR executor.
func joinThenRank(q joinquery.Query, ctr *stats.Counters) []joinquery.Result {
	p1, p2 := q.Parts[0], q.Parts[1]
	build := make(map[int32][]core.Result)
	p1.Scan(ctr, func(r core.Result) {
		key := p1.Rel.Keys[r.TID]
		build[key] = append(build[key], r)
	})
	var all []joinquery.Result
	p2.Scan(ctr, func(r core.Result) {
		for _, m := range build[p2.Rel.Keys[r.TID]] {
			all = append(all, joinquery.Result{TIDs: []table.TID{m.TID, r.TID}, Score: m.Score + r.Score})
		}
	})
	sort.Slice(all, func(a, b int) bool { return all[a].Score < all[b].Score })
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

// fig6_3: execution time w.r.t. join-key cardinalities.
func fig6_3(cfg Config) *Report {
	rep := &Report{ID: "fig6.3", Title: "Execution Time w.r.t. Cardinalities",
		XLabel: "join-key cardinality", Metric: "ms/query"}
	var rc, base Series
	rc.Name, base.Name = "ranking-cube", "join-then-rank"
	for _, keyCard := range []int{10, 100, 1000, 10000} {
		env := newCh6Env(cfg, 300_000, keyCard)
		x := fmt.Sprintf("%d", keyCard)
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			if _, err := joinquery.Execute(env.query(cfg, qi, 10), joinquery.Options{}, ctr); err != nil {
				must(err)
			}
		})
		rc.Points = append(rc.Points, Point{X: x, Value: m.ms()})
		m = run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			joinThenRank(env.query(cfg, qi, 10), ctr)
		})
		base.Points = append(base.Points, Point{X: x, Value: m.ms()})
	}
	rep.Series = []Series{rc, base}
	return rep
}

// fig6_4: execution time w.r.t. database size.
func fig6_4(cfg Config) *Report {
	rep := &Report{ID: "fig6.4", Title: "Query Execution w.r.t. Database Size",
		XLabel: "T per relation (thesis rows)", Metric: "ms/query"}
	var rc, base Series
	rc.Name, base.Name = "ranking-cube", "join-then-rank"
	for _, thousands := range []int{100, 200, 500, 1000} {
		env := newCh6Env(cfg, thousands*1000*10, 1000)
		x := fmt.Sprintf("%dk", thousands)
		m := run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			if _, err := joinquery.Execute(env.query(cfg, qi, 10), joinquery.Options{}, ctr); err != nil {
				must(err)
			}
		})
		rc.Points = append(rc.Points, Point{X: x, Value: m.ms()})
		m = run(cfg, cfg.Queries, func(qi int, ctr *stats.Counters) {
			joinThenRank(env.query(cfg, qi, 10), ctr)
		})
		base.Points = append(base.Points, Point{X: x, Value: m.ms()})
	}
	rep.Series = []Series{rc, base}
	return rep
}
