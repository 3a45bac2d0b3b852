package baselines

import (
	"math"

	"rankcube/internal/core"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// RankingFirst is the "Ranking" baseline of §4.4.1: branch-and-bound over
// an R-tree ordered by function lower bounds, with boolean predicates
// verified by random access only for tuples that would enter the top-k.
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

// Tree exposes the baseline's R-tree (shared with other engines in some
// experiments).
func (rf *RankingFirst) Tree() *rtree.Tree { return rf.rt }

// TopK runs the progressive search. Boolean checks are deferred to
// candidate results, which the thesis argues minimizes verification count
// (§4.4.1: "we only verify a tuple which has been determined as a candidate
// result").
func (rf *RankingFirst) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	if rf.rt.Root() == hindex.InvalidNode || k <= 0 {
		return nil
	}
	t := rf.heap.t
	acc := hindex.NewAccessor(rf.rt, ctr)
	verify := pager.NewBuffer(rf.heap.store)
	topk := heap.NewBounded[core.Result](k, core.WorseResult)

	type entry struct {
		score   float64
		isTuple bool
		node    hindex.NodeID
		tid     table.TID
	}
	less := func(a, b entry) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.isTuple && !b.isTuple
	}
	h := heap.New[entry](less)
	h.Push(entry{score: f.LowerBound(rf.rt.NodeBox(rf.rt.Root())), node: rf.rt.Root()})

	for h.Len() > 0 {
		ctr.ObserveHeap(h.Len())
		e := h.Pop()
		if topk.Full() && topk.Worst().Score <= e.score {
			break
		}
		if e.isTuple {
			// Candidate result: random-access boolean verification.
			verify.Touch(rf.heap.PageOf(e.tid), ctr)
			if t.Matches(e.tid, cond) {
				topk.Offer(core.Result{TID: e.tid, Score: e.score})
			}
			continue
		}
		leaf := rf.rt.IsLeaf(e.node)
		for slot, n := 0, acc.Visit(e.node); slot < n; slot++ {
			if leaf {
				tid, pt := acc.Tuple(e.node, slot)
				if score := f.Eval(pt); !math.IsInf(score, 1) {
					h.Push(entry{score: score, isTuple: true, tid: tid})
				}
				continue
			}
			kid, box := acc.Child(e.node, slot)
			if bound := f.LowerBound(box); !math.IsInf(bound, 1) {
				h.Push(entry{score: bound, node: kid})
			}
		}
	}
	return topk.Sorted()
}
