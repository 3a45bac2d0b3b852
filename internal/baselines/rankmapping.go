package baselines

import (
	"math"
	"sort"

	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// RankMapping reproduces the rank-mapping comparison of §3.5.1: a top-k
// query maps to a range query over a clustered multi-dimensional index
// ordered first by the selection dimensions, then by the ranking
// dimensions. As in the thesis' "extremely conservative comparison", the
// range bounds are oracle-optimal: derived from the true kth score, the
// best any workload-adaptive mapping strategy could produce.
type RankMapping struct {
	t *table.Table
	// order is the clustered tuple order; keys are (A1..AS, N1..NR). Its
	// pages are the heap file's, whole rows to a page: position i of order
	// is on the page tid i would be.
	order []table.TID
	heap  *core.HeapFile
}

// NewRankMapping builds the clustered composite index at the given page
// size (0 = default).
func NewRankMapping(t *table.Table, pageSize int) *RankMapping {
	rm := &RankMapping{t: t, heap: core.NewHeapFile(t, pageSize)}
	rm.order = make([]table.TID, t.Len())
	for i := range rm.order {
		rm.order[i] = table.TID(i)
	}
	s := t.Schema().S()
	r := t.Schema().R()
	sort.Slice(rm.order, func(a, b int) bool {
		ta, tb := rm.order[a], rm.order[b]
		for d := 0; d < s; d++ {
			va, vb := t.Sel(ta, d), t.Sel(tb, d)
			if va != vb {
				return va < vb
			}
		}
		for d := 0; d < r; d++ {
			va, vb := t.Rank(ta, d), t.Rank(tb, d)
			if va != vb {
				return va < vb
			}
		}
		return ta < tb
	})
	return rm
}

// IndexSizeBytes reports the clustered index footprint (fig. 3.11's RM
// series): every row once.
func (rm *RankMapping) IndexSizeBytes() int64 { return int64(len(rm.order) * rm.t.RowBytes()) }

// OptimalBox derives the oracle range box for score threshold s*: the
// tightest per-dimension bounds guaranteed to contain every tuple with
// f ≤ s* (thesis example: kth score 100 under N1+2N2 gives n1=100, n2=50).
// Functions without a closed form fall back to the full domain.
func OptimalBox(t *table.Table, f ranking.Func, kth float64) ranking.Box {
	r := t.Schema().R()
	lo := make([]float64, r)
	hi := make([]float64, r)
	for d := 0; d < r; d++ {
		lo[d], hi[d] = t.RankDomain(d)
	}
	box := ranking.NewBox(lo, hi)
	switch fn := f.(type) {
	case *ranking.LinearFunc:
		// For weight w > 0: x_d ≤ (kth − Σ_{j≠d} min_j)/w; symmetrically
		// for w < 0. Using per-dimension minima of the other terms keeps the
		// box sound for mixed signs.
		attrs := fn.Attrs()
		ws := fn.Weights()
		mins := make([]float64, len(attrs))
		total := 0.0
		for i, a := range attrs {
			if ws[i] >= 0 {
				mins[i] = ws[i] * box.Lo[a]
			} else {
				mins[i] = ws[i] * box.Hi[a]
			}
			total += mins[i]
		}
		for i, a := range attrs {
			budget := kth - (total - mins[i])
			w := ws[i]
			if w > 0 {
				if v := budget / w; v < box.Hi[a] {
					box.Hi[a] = v
				}
			} else if w < 0 {
				if v := budget / w; v > box.Lo[a] {
					box.Lo[a] = v
				}
			}
		}
	case *ranking.DistFunc:
		ext := fn.Extreme()
		for _, a := range fn.Attrs() {
			var radius float64
			if kth >= 0 {
				radius = math.Sqrt(kth)
			}
			if lo := ext[a] - radius; lo > box.Lo[a] {
				box.Lo[a] = lo
			}
			if hi := ext[a] + radius; hi < box.Hi[a] {
				box.Hi[a] = hi
			}
		}
	}
	return box
}

// TopK answers the query through the mapped range query. The oracle kth
// score is computed out-of-band (uncharged), as the thesis feeds the method
// its best possible bounds.
func (rm *RankMapping) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	t := rm.t
	kth := rm.oracleKth(cond, f, k)
	if math.IsInf(kth, 1) {
		return nil
	}
	box := OptimalBox(t, f, kth)

	// The clustered index serves the query well only when the condition
	// binds a prefix of the composite key; the scanned segment is the run
	// of tuples matching the bound prefix (§3.5.2's observation that
	// execution time is sensitive to whether query dimensions follow the
	// index order).
	s := t.Schema().S()
	prefix := 0
	for d := 0; d < s; d++ {
		if _, ok := cond[d]; ok {
			prefix++
		} else {
			break
		}
	}
	lo, hi := rm.segment(cond, prefix)

	// Charge the scanned index pages.
	if hi > lo {
		ctr.Read(stats.StructBTree, int64(rm.heap.PageOf(table.TID(hi-1))-rm.heap.PageOf(table.TID(lo))+1))
	}

	var topk core.TopK
	topk.Reset(k)
	buf := make([]float64, t.Schema().R())
	for i := lo; i < hi; i++ {
		tid := rm.order[i]
		if !t.Matches(tid, cond) {
			continue
		}
		row := t.RankRow(tid, buf)
		if !box.Contains(row) {
			continue
		}
		score := f.Eval(row)
		if math.IsInf(score, 1) {
			continue
		}
		topk.Offer(core.Result{TID: tid, Score: score})
	}
	return topk.Sorted()
}

// segment finds the clustered-order run matching the first prefix bound
// selection dimensions of cond.
func (rm *RankMapping) segment(cond core.Cond, prefix int) (int, int) {
	if prefix == 0 {
		return 0, len(rm.order)
	}
	t := rm.t
	cmp := func(tid table.TID) int {
		for d := 0; d < prefix; d++ {
			v := t.Sel(tid, d)
			if v != cond[d] {
				if v < cond[d] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lo := sort.Search(len(rm.order), func(i int) bool { return cmp(rm.order[i]) >= 0 })
	hi := sort.Search(len(rm.order), func(i int) bool { return cmp(rm.order[i]) > 0 })
	return lo, hi
}

// oracleKth computes the true kth score (uncharged oracle).
func (rm *RankMapping) oracleKth(cond core.Cond, f ranking.Func, k int) float64 {
	t := rm.t
	var topk core.TopK
	topk.Reset(k)
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
		if !t.Matches(tid, cond) {
			continue
		}
		score := f.Eval(t.RankRow(tid, buf))
		if math.IsInf(score, 1) {
			continue
		}
		topk.Offer(core.Result{TID: tid, Score: score})
	}
	if topk.Len() == 0 {
		return math.Inf(1)
	}
	return topk.Worst().Score
}
