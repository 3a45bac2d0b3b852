package skyline

import (
	"slices"
	"sort"

	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ScanSkyline answers q exactly with a full sequential scan and a
// block-nested-loop skyline — the degradation target when the cube's
// partition tree or signatures fault mid-search, and the Boolean baseline of
// chapter 7. It touches no cube store, skips tuples deleted from the
// partition, and charges one sequential pass over the relation's pages. The
// returned snapshot is marked degraded: it has no pruned-candidate basis, so
// drill-down/roll-up restart from scratch.
func (e *Engine) ScanSkyline(q Query, ctr *stats.Counters) ([]Result, *Snapshot, error) {
	if err := e.validate(q); err != nil {
		return nil, nil, err
	}
	// The window holds the skyline of the tuples scanned so far; every tuple
	// that is not in the answer is counted once, when it is let go.
	var sky []Result
	var point []float64
	e.cube.SeqScan(q.Cond, ctr, func(tid table.TID, rank []float64) {
		point = q.appendCorner(point[:0], rank, rank, q.Dims)
		kept := sky[:0]
		for _, w := range sky {
			if dominates(w.Coord, point) {
				// What a member dominates dominates no member: none was let go.
				ctr.DominationPruned++
				return
			}
			if dominates(point, w.Coord) {
				ctr.DominationPruned++
				continue
			}
			kept = append(kept, w)
		}
		sky = append(kept, Result{TID: tid, Coord: slices.Clone(point)})
	})
	// BBS emits in ascending mindist order; match it (ties by tid) so the
	// fallback is indistinguishable modulo equal-distance ties.
	sort.Slice(sky, func(a, b int) bool {
		sa, sb := sum(sky[a].Coord), sum(sky[b].Coord)
		if sa != sb {
			return sa < sb
		}
		return sky[a].TID < sky[b].TID
	})
	snap := e.snapshot(q)
	snap.skyline, snap.degraded = sky, true
	return sky, snap, nil
}
