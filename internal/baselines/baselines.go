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
	"rankcube/internal/heap"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// HeapFile models the base relation stored as a paged heap file in tid
// order; all baselines share it for sequential scans and random accesses.
type HeapFile struct {
	t        *table.Table
	store    *pager.Store
	rowsPage int
}

// NewHeapFile pages the relation at the given page size (0 = default).
func NewHeapFile(t *table.Table, pageSize int) *HeapFile {
	store := pager.NewStore(stats.StructTable, pageSize)
	rowBytes := t.RowBytes()
	rowsPage := store.PageSize() / rowBytes
	if rowsPage < 1 {
		rowsPage = 1
	}
	n := (t.Len() + rowsPage - 1) / rowsPage
	for i := 0; i < n; i++ {
		rows := rowsPage
		if i == n-1 {
			rows = t.Len() - i*rowsPage
		}
		store.AppendLogical(rows * rowBytes)
	}
	return &HeapFile{t: t, store: store, rowsPage: rowsPage}
}

// Table returns the underlying relation.
func (h *HeapFile) Table() *table.Table { return h.t }

// PageOf maps a tuple to its heap page.
func (h *HeapFile) PageOf(tid table.TID) pager.PageID {
	return pager.PageID(int(tid) / h.rowsPage)
}

// NumPages reports the heap file's page count.
func (h *HeapFile) NumPages() int { return h.store.NumPages() }

// SizeBytes reports the heap file footprint.
func (h *HeapFile) SizeBytes() int64 { return h.store.Bytes() }

// TableScan is the TS baseline: read every page, keep the best k matches.
type TableScan struct {
	heap *HeapFile
}

// NewTableScan wraps a heap file.
func NewTableScan(h *HeapFile) *TableScan { return &TableScan{heap: h} }

// TopK scans the relation: one pass over the heap file's pages.
func (ts *TableScan) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	return core.ScanTopK(ts.heap.t, ts.heap.NumPages(), nil, cond, f, k, ctr)
}

// BooleanFirst evaluates boolean predicates through per-dimension inverted
// indexes, then ranks the surviving tuples.
type BooleanFirst struct {
	heap  *HeapFile
	store *pager.Store
	// lists[d][v] holds the tids with value v on dimension d, ascending.
	lists [][][]table.TID
	pages [][]pager.PageID
}

// NewBooleanFirst builds the inverted indexes.
func NewBooleanFirst(h *HeapFile) *BooleanFirst {
	t := h.t
	bf := &BooleanFirst{
		heap:  h,
		store: pager.NewStore(stats.StructBTree, h.store.PageSize()),
	}
	s := t.Schema().S()
	bf.lists = make([][][]table.TID, s)
	bf.pages = make([][]pager.PageID, s)
	for d := 0; d < s; d++ {
		card := t.Schema().SelCard[d]
		bf.lists[d] = make([][]table.TID, card)
		col := t.SelColumn(d)
		for i, v := range col {
			bf.lists[d][v] = append(bf.lists[d][v], table.TID(i))
		}
		bf.pages[d] = make([]pager.PageID, card)
		for v := 0; v < card; v++ {
			bf.pages[d][v] = bf.store.AppendLogical(len(bf.lists[d][v]) * 4)
		}
	}
	return bf
}

// IndexSizeBytes reports the inverted-index footprint (fig. 3.11's BL
// index-size series).
func (bf *BooleanFirst) IndexSizeBytes() int64 { return bf.store.Bytes() }

// TopK intersects the condition's tid lists (charging index reads), fetches
// survivors with random accesses, and ranks them.
func (bf *BooleanFirst) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	t := bf.heap.t
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
		bf.store.Touch(bf.pages[d][cond[d]], ctr)
		if i == 0 {
			candidates = append([]table.TID(nil), list...)
			continue
		}
		candidates = core.IntersectSorted(candidates, list)
		if len(candidates) == 0 {
			return nil
		}
	}
	// Fetch survivors: random accesses, buffered per page.
	buffer := pager.NewBuffer(bf.heap.store)
	topk := heap.NewBounded[core.Result](k, core.WorseResult)
	buf := make([]float64, t.Schema().R())
	for _, tid := range candidates {
		buffer.Touch(bf.heap.PageOf(tid), ctr)
		score := f.Eval(t.RankRow(tid, buf))
		if math.IsInf(score, 1) {
			continue
		}
		topk.Offer(core.Result{TID: tid, Score: score})
	}
	return topk.Sorted()
}
