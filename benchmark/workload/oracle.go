package workload

import (
	"math"
	"sort"

	"rankcube"
)

// scoreTol absorbs a reordered floating-point sum; anything larger is a
// different answer.
const scoreTol = 1e-9

// SameTopK compares two top-k answers: equal length, equal score vector, and
// equal tuple ids wherever a score is distinct from its neighbours (tied
// tuples may legitimately come back in either order).
func SameTopK(got, want []rankcube.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > scoreTol {
			return false
		}
		tied := (i > 0 && want[i].Score-want[i-1].Score <= scoreTol) ||
			(i+1 < len(want) && want[i+1].Score-want[i].Score <= scoreTol)
		if !tied && got[i].TID != want[i].TID {
			return false
		}
	}
	return true
}

// skylineOracle recomputes a skyline by pairwise dominance over the generated
// relation: a matching tuple is a member unless another matching tuple is no
// worse on every dimension and better on one. Ids come back ascending.
func skylineOracle(rel *rankcube.Relation, cond rankcube.Cond, dims []int) []rankcube.TID {
	var match []rankcube.TID
	for i := 0; i < rel.Len(); i++ {
		if tid := rankcube.TID(i); rel.Matches(tid, cond) {
			match = append(match, tid)
		}
	}
	dominates := func(a, b rankcube.TID) bool {
		strict := false
		for _, d := range dims {
			av, bv := rel.Rank(a, d), rel.Rank(b, d)
			if av > bv {
				return false
			}
			if av < bv {
				strict = true
			}
		}
		return strict
	}
	var sky []rankcube.TID
	for _, t := range match {
		member := true
		for _, o := range match {
			if dominates(o, t) {
				member = false
				break
			}
		}
		if member {
			sky = append(sky, t)
		}
	}
	return sky
}

func sameSkyline(got []rankcube.SkylineResult, want []rankcube.TID) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make([]rankcube.TID, len(got))
	for i, r := range got {
		ids[i] = r.TID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for i := range want {
		if ids[i] != want[i] {
			return false
		}
	}
	return true
}

type joined struct {
	tids  [2]rankcube.TID
	score float64
}

// joinOracle answers the session's rank join by brute force: hash relation 0's
// matching tuples by join key, probe with relation 1's, score every pair as
// the sum of its two parts, and keep the k best (ties by tuple ids).
func joinOracle(sides [2]JoinSide, s *Session, k int) []joined {
	byKey := make(map[int32][]rankcube.TID)
	left := sides[0]
	for i := 0; i < left.Rel.Len(); i++ {
		if tid := rankcube.TID(i); left.Rel.Matches(tid, s.JoinCond[0]) {
			byKey[left.Keys[i]] = append(byKey[left.Keys[i]], tid)
		}
	}
	var all []joined
	var lbuf, rbuf []float64
	right := sides[1]
	for i := 0; i < right.Rel.Len(); i++ {
		rt := rankcube.TID(i)
		if !right.Rel.Matches(rt, s.JoinCond[1]) {
			continue
		}
		rbuf = right.Rel.RankRow(rt, rbuf)
		rs := s.join[1].Eval(rbuf)
		for _, lt := range byKey[right.Keys[i]] {
			lbuf = left.Rel.RankRow(lt, lbuf)
			all = append(all, joined{tids: [2]rankcube.TID{lt, rt}, score: s.join[0].Eval(lbuf) + rs})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score < all[b].score
		}
		if all[a].tids[0] != all[b].tids[0] {
			return all[a].tids[0] < all[b].tids[0]
		}
		return all[a].tids[1] < all[b].tids[1]
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sameJoin(got []rankcube.JoinResult, want []joined) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].score) > scoreTol {
			return false
		}
		tied := (i > 0 && want[i].score-want[i-1].score <= scoreTol) ||
			(i+1 < len(want) && want[i+1].score-want[i].score <= scoreTol)
		if !tied && (len(got[i].TIDs) != 2 || got[i].TIDs[0] != want[i].tids[0] || got[i].TIDs[1] != want[i].tids[1]) {
			return false
		}
	}
	return true
}
