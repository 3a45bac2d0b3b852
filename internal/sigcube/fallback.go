package sigcube

import (
	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Alive reports whether tid currently belongs to the partition. Deleted
// tuples keep their relation row (tombstoned by absence from the tree), so
// fallback scans must consult this rather than the raw relation.
func (c *Cube) Alive(tid table.TID) bool {
	return tid >= 0 && int(tid) < len(c.paths) && c.paths[tid] != 0
}

// Heap is the relation's heap file, at the default page size whatever the
// cube's stores use: what its sequential scans walk and its lossy verifier
// fetches from.
func (c *Cube) Heap() *core.HeapFile { return core.NewHeapFile(c.t, 0) }

// SeqScan makes one sequential pass over the base relation's live tuples
// matching cond (core.Scan over the cube's heap file). It touches none of
// the cube's stores (which may be quarantined); the skyline and rank-join
// fallbacks and the join's materialized access path are built on it.
func (c *Cube) SeqScan(cond core.Cond, ctr *stats.Counters, visit func(tid table.TID, rank []float64)) {
	core.Scan(c.Heap(), c.Alive, cond, ctr, visit)
}

// ScanTopK answers a top-k query with a full sequential scan of the base
// relation — the exact-answer fallback used when signatures or the
// partition tree fault mid-search — charging one sequential pass over the
// relation's pages.
func (c *Cube) ScanTopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	return core.ScanTopK(c.Heap(), c.Alive, cond, f, k, ctr)
}
