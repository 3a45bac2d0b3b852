package skyline

import (
	"sort"

	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ScanSkyline answers q exactly with a full sequential scan and pairwise
// domination filtering — the degradation target when the cube's partition
// tree or signatures fault mid-search. It touches no cube store, skips
// tuples deleted from the partition, and charges one sequential pass over
// the relation's pages. The returned snapshot is marked degraded: it has
// no pruned-candidate basis, so drill-down/roll-up restart from scratch.
func (e *Engine) ScanSkyline(q Query, ctr *stats.Counters) ([]Result, *Snapshot, error) {
	if err := e.validate(q); err != nil {
		return nil, nil, err
	}
	var cands []Result
	e.cube.SeqScan(q.Cond, ctr, func(tid table.TID, rank []float64) {
		cands = append(cands, Result{TID: tid, Coord: q.appendPoint(nil, rank)})
	})
	var sky []Result
	for i := range cands {
		dominated := false
		for j := range cands {
			if i != j && dominates(cands[j].Coord, cands[i].Coord) {
				dominated = true
				ctr.DominationPruned++
				break
			}
		}
		if !dominated {
			sky = append(sky, cands[i])
		}
	}
	// BBS emits in ascending mindist order; match it (ties by tid) so the
	// fallback is indistinguishable modulo equal-distance ties.
	sort.Slice(sky, func(a, b int) bool {
		sa, sb := sum(sky[a].Coord), sum(sky[b].Coord)
		if sa != sb {
			return sa < sb
		}
		return sky[a].TID < sky[b].TID
	})
	snap := &Snapshot{query: q, skyline: sky, degraded: true}
	return sky, snap, nil
}
