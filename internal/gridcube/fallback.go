package gridcube

import (
	"rankcube/internal/core"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ScanTopK answers q with a full sequential scan of the base relation —
// the exact-answer fallback the degradation policy switches to when the
// cube's materialized structures fault mid-search. It bypasses cuboids and
// the base block table entirely (their pages may be quarantined), respects
// tombstones, and charges one sequential pass over the relation's pages.
func (c *Cube) ScanTopK(q Query, ctr *stats.Counters) []Result {
	alive := func(tid table.TID) bool { return !c.tombstones[tid] }
	return core.ScanTopK(core.NewHeapFile(c.t, 0), alive, q.Cond, q.F, q.K, ctr)
}
