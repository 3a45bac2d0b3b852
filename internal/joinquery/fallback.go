package joinquery

import (
	"math"

	"rankcube/internal/core"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// BruteForce answers q exactly with full sequential scans and an in-memory
// hash join on the key column — the degradation target when a member
// relation's ranking cube faults mid-join. It touches no cube structure:
// every relation is scanned once (charged as sequential table reads),
// matches are bucketed by join key, and the per-key cross products feed a
// bounded top-k heap. Costly next to a converging rank join, but always
// available and always exact.
func BruteForce(q Query, ctr *stats.Counters) ([]Result, error) {
	if err := q.check(); err != nil || q.K <= 0 {
		return nil, err
	}
	j := newJoiner(q)
	for i, p := range q.Parts {
		p.Rel.Cube.SeqScan(p.Cond, ctr, func(tid table.TID, rank []float64) {
			if score := p.F.Eval(rank); !math.IsInf(score, 1) {
				key := p.Rel.Keys[tid]
				j.kept[i][key] = append(j.kept[i][key], core.Result{TID: tid, Score: score})
			}
		})
	}
	for key := range j.kept[0] {
		j.walk(0, -1, key, 0)
	}
	return j.topk.Sorted(), nil
}
