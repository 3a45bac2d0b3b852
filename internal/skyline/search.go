package skyline

import (
	"slices"
	"sync"

	"rankcube/internal/ranking"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// search is one run of the skyline search (fig. 7.1) on sigcube.BestFirst,
// fresh from the root or from a candidate heap re-constructed out of a
// snapshot, ranked by mindist: the lower bound of Σ dims for a static
// skyline, of Σ |dims − target| for a dynamic one. A state's payload is its
// corner in preference space — a node's best corner, a tuple's point — and
// the filter is the domination test. The tuples the search emits join the
// skyline.
type search struct {
	q  Query
	sc *sigcube.BestFirst[int32]
	// verify re-checks a tuple against the relation before it enters the
	// skyline (lossy measures, §4.5: a bloom cell passes tuples that do not
	// match, and one let in would also shadow true members); nil on exact
	// cubes. The drill-down's seeds are put to it too.
	verify func(table.TID) bool
	ctr    *stats.Counters
	// snap takes the run's skyline, seeds included, and what it prunes by
	// domination.
	snap *Snapshot
	home *sync.Pool
	// The storage of this run's states, on loan from the engine until run
	// returns.
	*arena
}

// arena is the storage of one run's states: the candidates, and the corners,
// a state's at corners[C:C+len(q.Dims)]. Nothing outlives the run in here:
// what a result or a snapshot keeps it copies.
type arena struct {
	cheap   sigcube.Candidates[int32]
	corners []float64
}

// newSearch prepares a run over the engine's partition that grows snap's
// skyline — from the seeds the caller put there, if any — and records in snap
// what it prunes by domination and the pages it retrieved, on top of those snap
// already holds, which it does not charge; the caller enters what the run
// starts from. A nil verify is the cube's own.
func (e *Engine) newSearch(q Query, tester signature.Tester, verify func(table.TID) bool, snap *Snapshot, ctr *stats.Counters) *search {
	a, _ := e.arenas.Get().(*arena)
	if a == nil {
		a = &arena{}
	}
	if verify == nil {
		verify = e.cube.Verifier(q.Cond, ctr)
	}
	var f ranking.Func = ranking.Sum(q.Dims...)
	if q.Target != nil {
		f = ranking.L1Dist(q.Dims, q.Target)
	}
	s := &search{arena: a, home: &e.arenas, q: q, verify: verify, ctr: ctr, snap: snap}
	s.sc = sigcube.NewBestFirst(e.cube.Tree(), tester, verify, f, s, &a.cheap, ctr)
	s.sc.Hold(snap.held)
	return s
}

// Node implements sigcube.Filter: a node's payload is its best corner.
func (s *search) Node(box ranking.Box) int32 {
	at := len(s.corners)
	s.corners = s.q.appendCorner(s.corners, box)
	return int32(at)
}

// Tuple implements sigcube.Filter: a tuple's payload is its point.
func (s *search) Tuple(pt []float64) int32 {
	at := len(s.corners)
	s.corners = s.q.appendPoint(s.corners, pt)
	return int32(at)
}

// Pass implements sigcube.Filter with the domination test of fig. 7.1, which
// comes before the boolean test.
func (s *search) Pass(st sigcube.State[int32]) bool {
	return !s.prune(prunedEntry{mindist: st.Score, sid: st.SID, ref: st.Ref, isTuple: st.Tuple}, s.corner(st))
}

// prune reports whether a skyline member dominates the candidate with the
// given corner, and keeps the candidate in the snapshot if one does.
func (s *search) prune(en prunedEntry, corner []float64) bool {
	if !s.snap.dominated(corner, en.isTuple) {
		return false
	}
	s.ctr.DominationPruned++
	s.snap.keep(en, corner)
	return true
}

func (s *search) corner(st sigcube.State[int32]) []float64 {
	return s.corners[st.C : int(st.C)+len(s.q.Dims)]
}

// run takes the tuples the search emits into the skyline.
func (s *search) run() {
	defer s.ctr.StartSpan("search")()
	defer func() {
		s.snap.held = s.sc.Held()
		s.corners = s.corners[:0]
		s.home.Put(s.arena)
	}()
	for {
		st, ok := s.sc.Pop()
		if !ok {
			return
		}
		s.snap.admit(Result{TID: table.TID(st.Ref), Coord: slices.Clone(s.corner(st))}, st.SID)
	}
}
