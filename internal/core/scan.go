package core

import (
	"math"

	"rankcube/internal/errs"
	"rankcube/internal/heap"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// SeqPages is the page count of one sequential pass over t stored row
// after row in pages of pageSize bytes: ceil(Len·RowBytes / pageSize).
func SeqPages(t *table.Table, pageSize int) int {
	return (t.Len()*t.RowBytes() + pageSize - 1) / pageSize
}

// Scan is the one sequential pass over a base relation: the floor every
// engine's degradation policy falls back to, the table-scan baseline, and
// the rank join's materialized access path. It opens a "scan" span, charges
// pages table reads once, and calls visit with every tuple that is alive
// (alive may be nil: every row counts) and satisfies cond, in tid order.
// rank is reused between calls. Engines pass SeqPages at their configured
// page size; the table-scan baseline passes its heap file's page count,
// whose rows never straddle a page. A condition on a dimension outside t's
// schema aborts ErrInvalidArgument before anything is read.
func Scan(t *table.Table, pages int, alive func(table.TID) bool, cond Cond, ctr *stats.Counters, visit func(tid table.TID, rank []float64)) {
	for d := range cond {
		if d < 0 || d >= t.Schema().S() {
			errs.Abortf(errs.ErrInvalidArgument, "scan: condition on selection dimension %d of %d", d, t.Schema().S())
		}
	}
	defer ctr.StartSpan("scan")()
	ctr.Read(stats.StructTable, int64(pages))
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
		if (alive == nil || alive(tid)) && t.Matches(tid, cond) {
			visit(tid, t.RankRow(tid, buf))
		}
	}
}

// ScanTopK answers a top-k query by Scan: the k best finite scores,
// ascending, ties toward the lower tid. k ≤ 0 asks for nothing and reads
// nothing.
func ScanTopK(t *table.Table, pages int, alive func(table.TID) bool, cond Cond, f ranking.Func, k int, ctr *stats.Counters) []Result {
	if k <= 0 {
		return nil
	}
	topk := heap.NewBounded[Result](k, WorseResult)
	Scan(t, pages, alive, cond, ctr, func(tid table.TID, rank []float64) {
		if score := f.Eval(rank); !math.IsInf(score, 1) {
			topk.Offer(Result{TID: tid, Score: score})
		}
	})
	return topk.Sorted()
}
