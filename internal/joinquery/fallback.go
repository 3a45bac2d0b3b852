package joinquery

import (
	"fmt"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/heap"
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
	if len(q.Parts) < 2 {
		return nil, fmt.Errorf("joinquery: need at least 2 relations, got %d: %w", len(q.Parts), errs.ErrInvalidArgument)
	}
	if q.K <= 0 {
		return nil, nil
	}
	buckets := make([]map[int32][]core.Result, len(q.Parts))
	for i, p := range q.Parts {
		buckets[i] = make(map[int32][]core.Result)
		p.scan(ctr, func(r core.Result) {
			key := p.Rel.Keys[r.TID]
			buckets[i][key] = append(buckets[i][key], r)
		})
	}

	topk := heap.NewBounded[Result](q.K, worseJoined)
	combo := make([]core.Result, len(q.Parts))
	var rec func(i int, key int32, score float64)
	rec = func(i int, key int32, score float64) {
		if i == len(q.Parts) {
			tids := make([]table.TID, len(combo))
			for j, c := range combo {
				tids[j] = c.TID
			}
			topk.Offer(Result{TIDs: tids, Score: score})
			return
		}
		for _, c := range buckets[i][key] {
			combo[i] = c
			rec(i+1, key, score+c.Score)
		}
	}
	for key := range buckets[0] {
		rec(0, key, 0)
	}
	return topk.Sorted(), nil
}
