package baselines

import (
	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
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
	t := h.Table()
	dims := make([]int, t.Schema().R())
	for i := range dims {
		dims[i] = i
	}
	return NewRankingFirst(h, rtree.Bulk(t, dims, ranking.NewBox(t.RankBounds()), cfg))
}

// TopK runs the progressive search. Boolean checks are deferred to
// candidate results, which the thesis argues minimizes verification count
// (§4.4.1: "we only verify a tuple which has been determined as a candidate
// result"): each charges its heap page the first time the query touches it.
func (rf *RankingFirst) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	return sigcube.Search(rf.rt, signature.True{}, rf.heap.Verifier(cond, ctr), f, k, ctr)
}
