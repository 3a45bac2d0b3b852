package core

import (
	"fmt"
	"math"

	"rankcube/internal/errs"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// HeapFile is the base relation's one page model: a heap file in tid order,
// whole rows to a page, max(1, pageSize / RowBytes) of them — the layout of
// the thesis' table-scan baseline. It keeps no pages of its own: the page
// count follows the relation's length whenever it is asked, so inserts by any
// cube over the relation, and a repartition's compacted table, need nothing
// done here. It also carries the relation's one charge rule: a sequential
// pass (Scan) charges each page as it walks it, and a random access
// (Verifier) charges a tuple's page the first time its query touches it.
type HeapFile struct {
	t        *table.Table
	rowsPage int
}

// NewHeapFile lays t out in pages of pageSize bytes (0 = pager.PageSize).
func NewHeapFile(t *table.Table, pageSize int) *HeapFile {
	if pageSize <= 0 {
		pageSize = pager.PageSize
	}
	return &HeapFile{t: t, rowsPage: max(1, pageSize/t.RowBytes())}
}

// Table returns the relation.
func (h *HeapFile) Table() *table.Table { return h.t }

// PageOf maps a tuple to its page.
func (h *HeapFile) PageOf(tid table.TID) int { return int(tid) / h.rowsPage }

// NumPages reports the relation's page count as it stands.
func (h *HeapFile) NumPages() int { return (h.t.Len() + h.rowsPage - 1) / h.rowsPage }

// Verifier returns the random-access path of one query: each call charges
// tid's page to ctr the first time the query touches it, then reports whether
// the tuple satisfies cond. The Boolean and Ranking baselines fetch and verify
// through it, and so does a lossy cube re-verifying what its filters passed.
func (h *HeapFile) Verifier(cond Cond, ctr *stats.Counters) func(table.TID) bool {
	var seen []bool // by page, sized at the first access
	return func(tid table.TID) bool {
		if seen == nil {
			seen = make([]bool, h.NumPages())
		}
		if p := h.PageOf(tid); !seen[p] {
			seen[p] = true
			ctr.Read(stats.StructTable, 1)
		}
		return h.t.Matches(tid, cond)
	}
}

// Scan is the one sequential pass over a base relation: the floor every
// engine's degradation policy falls back to, the table-scan baseline, and
// the rank join's fallback. It opens a "scan" span and walks
// the heap file page by page, charging each page one table read right before
// it visits that page's rows, so a canceled context or a spent read budget
// stops the pass within one page. visit gets every tuple that is alive (alive
// may be nil: every row counts) and satisfies cond, in tid order; rank is
// reused between calls. A condition on a dimension outside the relation's
// schema aborts ErrInvalidArgument before anything is read.
func Scan(h *HeapFile, alive func(table.TID) bool, cond Cond, ctr *stats.Counters, visit func(tid table.TID, rank []float64)) {
	t := h.t
	for d := range cond {
		if d < 0 || d >= t.Schema().S() {
			errs.Abortf(errs.ErrInvalidArgument, "scan: condition on selection dimension %d of %d", d, t.Schema().S())
		}
	}
	defer ctr.StartSpan("scan")()
	buf := make([]float64, t.Schema().R())
	for first := 0; first < t.Len(); first += h.rowsPage {
		ctr.Read(stats.StructTable, 1)
		for i := first; i < min(first+h.rowsPage, t.Len()); i++ {
			tid := table.TID(i)
			if (alive == nil || alive(tid)) && t.Matches(tid, cond) {
				visit(tid, t.RankRow(tid, buf))
			}
		}
	}
}

// ScanTopK answers a top-k query by Scan: the k best finite scores,
// ascending, ties toward the lower tid. k ≤ 0 asks for nothing and reads
// nothing.
func ScanTopK(h *HeapFile, alive func(table.TID) bool, cond Cond, f ranking.Func, k int, ctr *stats.Counters) []Result {
	if k <= 0 {
		return nil
	}
	var topk TopK
	topk.Reset(k)
	Scan(h, alive, cond, ctr, func(tid table.TID, rank []float64) {
		if score := f.Eval(rank); !math.IsInf(score, 1) {
			topk.Offer(Result{TID: tid, Score: score})
		}
	})
	return topk.Sorted()
}

// CheckFunc is the one check of a ranking function against the relation it
// ranks, made by every entry point that takes one before any engine sees the
// request: a missing function or relation, or a function of a rank dimension
// the schema does not have, is ErrInvalidArgument, which never degrades.
func CheckFunc(f ranking.Func, t *table.Table) error {
	if f == nil || t == nil {
		return fmt.Errorf("rankcube: a ranking function needs a function and a relation: %w", errs.ErrInvalidArgument)
	}
	for _, a := range f.Attrs() {
		if a < 0 || a >= t.Schema().R() {
			return fmt.Errorf("rankcube: %v ranks dimension %d of %d: %w", f, a, t.Schema().R(), errs.ErrInvalidArgument)
		}
	}
	return nil
}
