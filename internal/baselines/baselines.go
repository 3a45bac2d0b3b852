// Package baselines implements the comparison systems of the thesis'
// evaluation chapters, reproducing their access-path shapes over the
// simulated pager:
//
//   - TableScan — sequential scan maintaining a k-heap (the TS series of
//     ch. 5 and the spirit of the ch. 3 "baseline" plan when selections are
//     unhelpful).
//   - BooleanFirst — per-dimension inverted indexes, intersect the matching
//     tid lists, fetch and rank survivors (the "Boolean" series of ch. 4 and
//     the SQL-Server baseline of ch. 3).
//   - RankingFirst — branch-and-bound over an R-tree with random-access
//     boolean verification on candidate results only (the "Ranking" series
//     of ch. 4).
//   - RankMapping — the top-k-to-range-query mapping of [14] fed, as in the
//     thesis (§3.5.1), oracle-optimal range bounds.
package baselines

import (
	"math"
	"sort"

	"rankcube/internal/core"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// HeapFile is the base relation as a paged heap file (core.HeapFile); all
// baselines share it for sequential scans and random accesses.
type HeapFile = core.HeapFile

// NewHeapFile pages the relation at the given page size (0 = default).
func NewHeapFile(t *table.Table, pageSize int) *HeapFile { return core.NewHeapFile(t, pageSize) }

// TableScan is the TS baseline: read every page, keep the best k matches.
type TableScan struct {
	heap *HeapFile
}

// NewTableScan wraps a heap file.
func NewTableScan(h *HeapFile) *TableScan { return &TableScan{heap: h} }

// TopK scans the relation: one pass over the heap file's pages.
func (ts *TableScan) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	return core.ScanTopK(ts.heap, nil, cond, f, k, ctr)
}

// BooleanFirst evaluates boolean predicates through per-dimension inverted
// indexes, then ranks the surviving tuples.
type BooleanFirst struct {
	heap *HeapFile
	// lists[d][v] holds the tids with value v on dimension d, ascending: 4
	// bytes a tid, stored on as many pages as that takes, one at least.
	lists [][][]table.TID
}

// NewBooleanFirst builds the inverted indexes.
func NewBooleanFirst(h *HeapFile) *BooleanFirst {
	t := h.Table()
	bf := &BooleanFirst{heap: h, lists: make([][][]table.TID, t.Schema().S())}
	for d := range bf.lists {
		bf.lists[d] = make([][]table.TID, t.Schema().SelCard[d])
		for i, v := range t.SelColumn(d) {
			bf.lists[d][v] = append(bf.lists[d][v], table.TID(i))
		}
	}
	return bf
}

// IndexSizeBytes reports the inverted-index footprint (fig. 3.11's BL
// index-size series): every tuple's tid once per dimension.
func (bf *BooleanFirst) IndexSizeBytes() int64 {
	return int64(4 * len(bf.lists) * bf.heap.Table().Len())
}

// TopK intersects the condition's tid lists (charging index reads), fetches
// survivors with random accesses, and ranks them.
func (bf *BooleanFirst) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	t := bf.heap.Table()
	dims := cond.Dims()
	var candidates []table.TID
	if len(dims) == 0 {
		return NewTableScan(bf.heap).TopK(cond, f, k, ctr)
	}
	// Start from the most selective list (standard optimizer choice), then
	// intersect the rest.
	sort.Slice(dims, func(a, b int) bool {
		return len(bf.lists[dims[a]][cond[dims[a]]]) < len(bf.lists[dims[b]][cond[dims[b]]])
	})
	for i, d := range dims {
		list := bf.lists[d][cond[d]]
		ctr.Read(stats.StructBTree, int64(max(1, (4*len(list)+pager.PageSize-1)/pager.PageSize)))
		if i == 0 {
			candidates = append([]table.TID(nil), list...)
			continue
		}
		candidates = core.IntersectSorted(candidates, list)
		if len(candidates) == 0 {
			return nil
		}
	}
	// Fetch survivors: random accesses, each page charged once.
	fetch := bf.heap.Verifier(nil, ctr)
	var topk core.TopK
	topk.Reset(k)
	buf := make([]float64, t.Schema().R())
	for _, tid := range candidates {
		fetch(tid)
		score := f.Eval(t.RankRow(tid, buf))
		if math.IsInf(score, 1) {
			continue
		}
		topk.Offer(core.Result{TID: tid, Score: score})
	}
	return topk.Sorted()
}
