package skyline

import (
	"sync"

	"rankcube/internal/poison"
	"rankcube/internal/ranking"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// search is one run of the skyline search (fig. 7.1) on the BestFirst it
// embeds, fresh from the root or from a candidate heap re-constructed out of a
// snapshot, ranked by mindist: the lower bound of Σ dims for a static
// skyline, of Σ |dims − target| for a dynamic one. A state's payload is its
// corner in preference space — a node's best corner, a tuple's point — and
// the filter is the domination test. The tuples the search emits join the
// skyline.
//
// A search comes from its engine's pool (Engine.newSearch) and goes back at
// Release, which whoever took it defers: it holds the candidates, the
// accessor and the tester; the corners, a state's at corners[C:C+len(q.Dims)];
// and the SIDs of what the run prunes by domination, in pruning order. Nothing
// outlives the run in here: what a result or a snapshot keeps it copies.
type search struct {
	sigcube.BestFirst[int32]
	q Query
	// verify re-checks a tuple against the relation before it enters the
	// skyline (lossy measures, §4.5: a bloom cell passes tuples that do not
	// match, and one let in would also shadow true members); nil on exact
	// cubes. The drill-down's seeds are put to it too.
	verify func(table.TID) bool
	ctr    *stats.Counters
	// snap takes the run's skyline, seeds included, and what it prunes by
	// domination.
	snap    *Snapshot
	home    *sync.Pool
	corners []float64
	pruned  []uint64
}

// newSearch takes a search from the engine's pool for a run over its
// partition that grows snap's skyline — from the seeds the caller put there,
// if any — and records in snap what it prunes by domination and the pages it
// retrieved, on top of those snap already holds, which it does not charge; the
// caller enters what the run starts from, and releases the search. The search
// takes tester over. A nil verify is the cube's own.
func (e *Engine) newSearch(q Query, tester signature.Tester, verify func(table.TID) bool, snap *Snapshot, ctr *stats.Counters) *search {
	s, _ := e.searches.Get().(*search)
	if s == nil {
		s = &search{home: &e.searches}
	}
	poison.Fill(s.corners, poison.Score)
	poison.Fill(s.pruned, poison.SID)
	if verify == nil {
		verify = e.cube.Verifier(q.Cond, ctr)
	}
	var f ranking.Func = ranking.Sum(q.Dims...)
	if q.Target != nil {
		f = ranking.L1Dist(q.Dims, q.Target)
	}
	s.q, s.verify, s.ctr, s.snap = q, verify, ctr, snap
	s.corners, s.pruned = s.corners[:0], s.pruned[:0]
	s.Start(e.cube.Tree(), tester, verify, f, s, ctr)
	s.Hold(snap.held)
	return s
}

// Release ends the run: the tester's views go back to their pool, and the
// search, holding nothing of the query, to the engine's.
func (s *search) Release() {
	s.BestFirst.Release()
	s.q, s.verify, s.ctr, s.snap = Query{}, nil, nil, nil
	s.home.Put(s)
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
// comes before the boolean test. A state a skyline member dominates fails, and
// its SID is kept for the snapshot.
func (s *search) Pass(st sigcube.State[int32]) bool {
	if !s.snap.dominated(s.corner(st)) {
		return true
	}
	s.ctr.DominationPruned++
	s.pruned = append(s.pruned, st.SID)
	return false
}

func (s *search) corner(st sigcube.State[int32]) []float64 {
	return s.corners[st.C : int(st.C)+len(s.q.Dims)]
}

// run takes the tuples the search emits into the skyline. When it ends the
// snapshot gets an exact-sized copy of the SIDs pruned and one slab for the
// coordinates of the members this run admitted.
func (s *search) run() {
	defer s.ctr.StartSpan("search")()
	first := len(s.snap.skyline)
	defer func() {
		s.snap.held = s.Held()
		s.snap.pruned = append(make([]uint64, 0, len(s.pruned)), s.pruned...)
		s.snap.own(first, len(s.q.Dims))
	}()
	for {
		st, ok := s.Pop()
		if !ok {
			return
		}
		s.snap.admit(Result{TID: table.TID(st.Ref), Coord: s.corner(st)}, st.SID)
	}
}
