package skyline

import (
	"sync"

	"rankcube/internal/hindex"
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
	q    Query
	f    ranking.Func
	tree hindex.PartitionTree
	sc   *sigcube.BestFirst[int32]
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

// arena is the storage of one run: the candidates; the corners, a state's at
// corners[C:C+len(q.Dims)]; the SIDs of what the run prunes by domination, in
// pruning order; and the box, point and path resolve reads an entry into.
// Nothing outlives the run in here: what a result or a snapshot keeps it
// copies.
type arena struct {
	cheap   sigcube.Candidates[int32]
	corners []float64
	pruned  []uint64
	box     ranking.Box
	pt      []float64
	path    []int
}

// newSearch prepares a run over the engine's partition that grows snap's
// skyline — from the seeds the caller put there, if any — and records in snap
// what it prunes by domination and the pages it retrieved, on top of those snap
// already holds, which it does not charge; the caller enters what the run
// starts from. A nil verify is the cube's own.
func (e *Engine) newSearch(q Query, tester signature.Tester, verify func(table.TID) bool, snap *Snapshot, ctr *stats.Counters) *search {
	tree := e.cube.Tree()
	a, _ := e.arenas.Get().(*arena)
	if a == nil {
		r := tree.Domain().Dims()
		scratch := make([]float64, 3*r)
		a = &arena{box: ranking.NewBox(scratch[:r:r], scratch[r:2*r:2*r]), pt: scratch[2*r:]}
	}
	if verify == nil {
		verify = e.cube.Verifier(q.Cond, ctr)
	}
	var f ranking.Func = ranking.Sum(q.Dims...)
	if q.Target != nil {
		f = ranking.L1Dist(q.Dims, q.Target)
	}
	s := &search{arena: a, home: &e.arenas, q: q, f: f, tree: tree, verify: verify, ctr: ctr, snap: snap}
	s.sc = sigcube.NewBestFirst(tree, tester, verify, f, s, &a.cheap, ctr)
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

// resolve reads the entry at sid back from the partition as the search scored
// it, its corner appended to the arena's corners: the node or tuple in the
// last slot of the path, under the parent the rest of the path names. The
// root (SID 0) is never pruned: every member lies in its box, so none
// strictly dominates its corner. The snapshot's epoch keeps every SID valid,
// and the chain read every parent, so it reads no page.
func (s *search) resolve(sid uint64) sigcube.State[int32] {
	st := sigcube.State[int32]{SID: sid, C: int32(len(s.corners))}
	s.path = hindex.PathOf(s.path, sid, s.tree.MaxFanout())
	parent, _ := s.tree.NodeAt(s.path[:len(s.path)-1])
	slot := s.path[len(s.path)-1] - 1
	if st.Tuple = s.tree.IsLeaf(parent); st.Tuple {
		st.Ref, st.Score = int32(s.tree.EntryPoint(parent, slot, s.pt)), s.f.Eval(s.pt)
		s.corners = s.q.appendPoint(s.corners, s.pt)
		return st
	}
	st.Ref = int32(s.tree.EntryBox(parent, slot, s.box))
	st.Score = s.f.LowerBound(s.box)
	s.corners = s.q.appendCorner(s.corners, s.box)
	return st
}

// run takes the tuples the search emits into the skyline. When it ends the
// snapshot gets an exact-sized copy of the SIDs pruned and one slab for the
// coordinates of the members this run admitted, and the arena goes back.
func (s *search) run() {
	defer s.ctr.StartSpan("search")()
	first := len(s.snap.skyline)
	defer func() {
		s.snap.held = s.sc.Held()
		s.snap.pruned = append(make([]uint64, 0, len(s.pruned)), s.pruned...)
		s.snap.own(first, len(s.q.Dims))
		s.corners, s.pruned = s.corners[:0], s.pruned[:0]
		s.home.Put(s.arena)
	}()
	for {
		st, ok := s.sc.Pop()
		if !ok {
			return
		}
		s.snap.admit(Result{TID: table.TID(st.Ref), Coord: s.corner(st)}, st.SID)
	}
}
