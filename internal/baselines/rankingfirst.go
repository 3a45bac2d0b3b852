package baselines

import (
	"rankcube/internal/core"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// RankingFirst is the "Ranking" baseline of §4.4.1: branch-and-bound over
// an R-tree ordered by function lower bounds, with boolean predicates
// verified by random access only for tuples that would enter the top-k. It
// is Alg. 3 with the empty predicate: sigcube.Search under signature.True.
type RankingFirst struct {
	heap *HeapFile
	rt   *rtree.Tree
}

// NewRankingFirst builds (or adopts) the R-tree over all ranking
// dimensions.
func NewRankingFirst(h *HeapFile, rt *rtree.Tree) *RankingFirst {
	return &RankingFirst{heap: h, rt: rt}
}

// BuildRankingFirst bulk-loads a fresh R-tree for the baseline.
func BuildRankingFirst(h *HeapFile, cfg rtree.Config) *RankingFirst {
	dims := make([]int, h.t.Schema().R())
	for i := range dims {
		dims[i] = i
	}
	return NewRankingFirst(h, rtree.Bulk(h.t, dims, ranking.NewBox(h.t.RankBounds()), cfg))
}

// TopK runs the progressive search. Boolean checks are deferred to
// candidate results, which the thesis argues minimizes verification count
// (§4.4.1: "we only verify a tuple which has been determined as a candidate
// result"): each charges its heap page the first time the query touches it.
func (rf *RankingFirst) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	pages := pager.NewBuffer(rf.heap.store)
	verify := func(tid table.TID) bool {
		pages.Touch(rf.heap.PageOf(tid), ctr)
		return rf.heap.t.Matches(tid, cond)
	}
	return sigcube.Search(rf.rt, signature.True{}, verify, f, k, ctr)
}
