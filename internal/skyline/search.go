package skyline

import (
	"cmp"
	"slices"
	"sync"

	"rankcube/internal/bitvec"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// search is one run of the branch-and-bound skyline search (fig. 7.1): fresh
// from the root, or from a candidate heap re-constructed out of a snapshot.
//
// Where the letter of fig. 7.1 pushes every child of an expanded node and
// puts each, when it is popped, to the domination test and then to the
// signature, the search pushes one pending entry for the node. The entry
// stands at the node's children in ascending mindist order and is keyed by
// the mindist of the child it stands at — the moment fig. 7.1 would pop that
// child, with exactly the skyline it would find. When the entry is popped the
// child gets its turn: dominated, it is pruned without touching the
// signature; otherwise the stages of the boolean test (signature.Stages) are
// probed one by one for as long as the child survives them, each probe
// settling that stage for all of the node's remaining children at once; a
// child that survives is emitted or expanded on the spot. The entry then
// moves to the node's next child that no probe has cleared and that was not
// found dominated along with an earlier one (the skyline only grows, so it
// would be at its own turn). Signature nodes and index nodes are therefore
// loaded for exactly the children fig. 7.1 loads them for; what shrinks is
// the heap — an entry per expanded node instead of one per child — and the
// work spent on children that never qualify.
//
// A tester that offers only Test cannot settle a stage for the siblings, so
// each child is put to it at its own turn.
type search struct {
	q      Query
	idx    hindex.Index
	acc    *hindex.Accessor
	tester signature.Tester
	// stages qualify a node's children from bit vectors; opaque is set when
	// the tester has none to offer.
	stages []signature.Prober
	opaque bool
	// fanout is the index's M: SIDs are radix M+1.
	fanout int
	// verify re-checks a tuple against the relation before it enters the
	// skyline (lossy measures, §4.5: a bloom cell passes tuples that do not
	// match, and one let in would also shadow true members); nil on exact
	// cubes.
	verify func(table.TID) bool
	ctr    *stats.Counters
	cheap  *heap.Heap[entry]
	sky    []Result
	snap   *Snapshot
	home   *sync.Pool

	// The candidates of this run, on loan from the engine until run returns.
	*arena
	// Scratch for one boolean test: the decoded path and the probed bits.
	path []int
	live bitvec.Bits
}

// arena is the storage of one run's candidates: the root, and the children of
// every expanded node, in ascending (mindist, slot) order by the time their
// turns come, each node's closed by a record with ref == endOfNode. A
// candidate's corner is corners[at:at+len(q.Dims)]. Nothing outlives the run
// in here: what a result or a snapshot keeps it copies.
type arena struct {
	kids    []candidate
	corners []float64
}

// candidate is one node or tuple of the partition awaiting its turn.
type candidate struct {
	mindist float64
	// ref is the tuple or the node; endOfNode closes a node's children, and
	// settled replaces the ref of a child with no turn to come: it had it, or
	// a probe found its bit clear.
	ref  int32
	slot int32
	at   int32
	// dominated is set when the child is found dominated, at its turn or
	// ahead of it; unless a probe settles it first, the snapshot keeps it.
	dominated bool
}

const (
	endOfNode = -1
	settled   = -2
)

// entry is one element of the candidate heap.
type entry struct {
	mindist float64
	// sid is the SID of the node whose children the entry walks.
	sid uint64
	// at is the position in kids of the candidate whose turn comes when the
	// entry is popped.
	at int32
	// stage is the first stage the node's children have not been probed for;
	// untested marks the entry of the root, which is no node's child.
	stage int16
	// tupleLevel is set when the candidates are tuples: at equal mindist they
	// go ahead of nodes.
	tupleLevel bool
	// ranked is set once the node's children from at on are in turn order;
	// until then only the one at at is in its place.
	ranked bool
}

const untested = -1

func lessEntry(a, b entry) bool {
	if a.mindist != b.mindist {
		return a.mindist < b.mindist
	}
	return a.tupleLevel && !b.tupleLevel
}

// newSearch prepares a run over the engine's partition with sky as the
// skyline so far; the caller pushes what the run starts from.
func (e *Engine) newSearch(q Query, tester signature.Tester, sky []Result, snap *Snapshot, ctr *stats.Counters) *search {
	idx := e.cube.Tree()
	stages, ok := signature.Stages(tester)
	a, _ := e.arenas.Get().(*arena)
	if a == nil {
		a = new(arena)
	}
	return &search{
		arena:  a,
		home:   &e.arenas,
		q:      q,
		idx:    idx,
		acc:    hindex.NewAccessor(idx, ctr),
		tester: tester,
		stages: stages,
		opaque: !ok,
		fanout: idx.MaxFanout(),
		verify: e.cube.Verifier(q.Cond, ctr),
		ctr:    ctr,
		cheap:  heap.New[entry](lessEntry),
		sky:    sky,
		snap:   snap,
	}
}

// pushRoot starts a run from the root of the partition, if it has one.
func (s *search) pushRoot() {
	root := s.idx.Root()
	if root == hindex.InvalidNode {
		return
	}
	at := len(s.corners)
	s.corners = s.q.appendCorner(s.corners, s.idx.NodeBox(root))
	s.kids = append(s.kids, candidate{mindist: sum(s.corners[at:]), ref: int32(root), at: int32(at)})
	s.push(entry{at: int32(len(s.kids) - 1), stage: untested})
}

// reenter pushes back the candidates at the given positions of prev.pruned, as
// children of the nodes they are children of: an entry per node walks them as
// it walks the children of a node this run expands, so the first of them to
// reach the tightened predicate's signature settles it for its siblings.
func (s *search) reenter(prev *Snapshot, back []int) {
	d, base := len(s.q.Dims), uint64(s.fanout+1)
	slices.SortFunc(back, func(a, b int) int {
		pa, pb := prev.pruned[a], prev.pruned[b]
		if c := cmp.Compare(pa.sid/base, pb.sid/base); c != 0 {
			return c
		}
		if c := cmp.Compare(pa.mindist, pb.mindist); c != 0 {
			return c
		}
		return cmp.Compare(pa.sid, pb.sid)
	})
	for n, i := range back {
		en := prev.pruned[i]
		first := n == 0 || prev.pruned[back[n-1]].sid/base != en.sid/base
		if first && n > 0 {
			s.kids = append(s.kids, candidate{ref: endOfNode})
		}
		at := len(s.corners)
		s.corners = append(s.corners, prev.corners[i*d:(i+1)*d]...)
		s.kids = append(s.kids, candidate{mindist: en.mindist, ref: en.ref, slot: int32(en.sid%base) - 1, at: int32(at)})
		if first {
			s.push(entry{sid: en.sid / base, at: int32(len(s.kids) - 1), tupleLevel: en.isTuple, ranked: true})
		}
	}
	s.kids = append(s.kids, candidate{ref: endOfNode})
}

// push pushes e standing at the candidate at e.at.
func (s *search) push(e entry) {
	e.mindist = s.kids[e.at].mindist
	s.cheap.Push(e)
	s.ctr.StatesGenerated++
}

// run is the BBS loop shared by fresh queries and heap re-construction.
func (s *search) run() []Result {
	defer s.ctr.StartSpan("search")()
	defer func() {
		s.kids, s.corners = s.kids[:0], s.corners[:0]
		s.home.Put(s.arena)
	}()
	d := len(s.q.Dims)
	for s.cheap.Len() > 0 {
		s.ctr.ObserveHeap(s.cheap.Len())
		e := s.cheap.Pop()
		s.ctr.StatesExamined++
		c := s.kids[e.at]
		corner := s.corners[c.at : int(c.at)+d]
		if e.stage == untested {
			s.visitRoot(c, corner)
			continue
		}
		switch {
		case s.dominated(corner, e.tupleLevel):
			// Domination pruning (fig. 7.1) comes first: a dominated
			// candidate costs no signature load. Nor will its siblings that
			// are dominated by now: the skyline only grows, so each would be
			// found dominated at its own turn, and a turn saved is a pop and a
			// push saved.
			s.kids[e.at].dominated = true
			for i := e.at + 1; s.kids[i].ref != endOfNode; i++ {
				if k := &s.kids[i]; k.ref != settled && !k.dominated {
					k.dominated = s.dominated(s.corners[k.at:int(k.at)+d], e.tupleLevel)
				}
			}
		case !s.passes(&e, c):
		default:
			s.kids[e.at].ref = settled
			if !e.tupleLevel {
				s.expand(hindex.NodeID(c.ref), e.sid*uint64(s.fanout+1)+uint64(c.slot+1))
			} else if tid := table.TID(c.ref); s.verify != nil && !s.verify(tid) {
				s.ctr.Pruned++
			} else {
				s.sky = append(s.sky, Result{TID: tid, Coord: slices.Clone(corner)})
			}
		}
		s.moveOn(e)
	}
	return s.sky
}

// visitRoot is the root's turn. No signature node holds a bit for it, but
// fig. 7.1 puts its empty path to the tester, and so does the search.
func (s *search) visitRoot(c candidate, corner []float64) {
	switch {
	case s.dominated(corner, false):
		s.ctr.DominationPruned++
		s.snap.keep(prunedEntry{mindist: c.mindist, ref: c.ref}, corner)
	case !s.tester.Test(nil):
		s.ctr.Pruned++
	default:
		s.expand(hindex.NodeID(c.ref), 0)
	}
}

// dominated applies the domination test against the current skyline: strict
// domination for tuples, weak domination of the best corner for nodes (any
// tuple in the box is then dominated or equal).
func (s *search) dominated(corner []float64, isTuple bool) bool {
	for i := range s.sky {
		if isTuple {
			if dominates(s.sky[i].Coord, corner) {
				return true
			}
		} else if weaklyDominates(s.sky[i].Coord, corner) {
			return true
		}
	}
	return false
}

// passes puts the child e stands at to the boolean test, loading what
// fig. 7.1's Test of its path would load: the stages not yet probed for the
// node, in order, until one clears the child; e.stage moves past the stages
// probed. A child that fails is settled.
func (s *search) passes(e *entry, c candidate) bool {
	s.path = hindex.PathOf(s.path, e.sid, s.fanout)
	if s.opaque {
		if s.tester.Test(append(s.path, int(c.slot)+1)) {
			return true
		}
		s.kids[e.at].ref = settled
		s.ctr.Pruned++
		return false
	}
	for int(e.stage) < len(s.stages) {
		s.live.SetAll(s.fanout)
		s.stages[e.stage].Probe(s.path, &s.live)
		e.stage++
		// The verdict holds for the siblings still to come as well, those
		// marked dominated among them: the snapshot is spared them.
		for i := e.at; s.kids[i].ref != endOfNode; i++ {
			if k := &s.kids[i]; k.ref != settled && !s.live.Get(int(k.slot)) {
				k.ref = settled
				s.ctr.Pruned++
			}
		}
		if s.kids[e.at].ref == settled {
			return false
		}
	}
	return true
}

// expand reads a node that passed both tests, ranks its children and pushes
// the entry that will walk them.
func (s *search) expand(node hindex.NodeID, sid uint64) {
	n := s.acc.Visit(node)
	if n == 0 {
		return
	}
	leaf := s.idx.IsLeaf(node)
	first := len(s.kids)
	for slot := 0; slot < n; slot++ {
		at := len(s.corners)
		var ref int32
		if leaf {
			tid, pt := s.acc.Tuple(node, slot)
			ref, s.corners = int32(tid), s.q.appendPoint(s.corners, pt)
		} else {
			kid, box := s.acc.Child(node, slot)
			ref, s.corners = int32(kid), s.q.appendCorner(s.corners, box)
		}
		s.kids = append(s.kids, candidate{mindist: sum(s.corners[at:]), ref: ref, slot: int32(slot), at: int32(at)})
	}
	// Only the first turn is certain to come, and for most nodes it ends in a
	// probe that clears most of the children: rank the others after it.
	best := first
	for i := first + 1; i < len(s.kids); i++ {
		if before(s.kids[i], s.kids[best]) {
			best = i
		}
	}
	s.kids[first], s.kids[best] = s.kids[best], s.kids[first]
	s.kids = append(s.kids, candidate{ref: endOfNode})
	s.push(entry{sid: sid, at: int32(first), tupleLevel: leaf})
}

// before is the order in which a node's children get their turns.
func before(a, b candidate) bool {
	if a.mindist != b.mindist {
		return a.mindist < b.mindist
	}
	return a.slot < b.slot
}

// moveOn re-pends e at the node's next child with a turn to come.
func (s *search) moveOn(e entry) {
	if !e.ranked {
		// After the node's first turn: drop the settled children, set those
		// marked dominated behind the others, and rank the others.
		rest := s.kids[e.at:]
		n, live := 0, 0
		for i := 0; rest[i].ref != endOfNode; i++ {
			k := rest[i]
			if k.ref == settled {
				continue
			}
			rest[n] = k
			if !k.dominated {
				rest[n], rest[live] = rest[live], rest[n]
				live++
			}
			n++
		}
		rest[n] = candidate{ref: endOfNode}
		slices.SortFunc(rest[:live], func(a, b candidate) int {
			if before(a, b) {
				return -1
			}
			return 1
		})
		e.ranked = true
	}
	// Pass over the children with no turn to come. Those marked dominated that
	// no probe has settled since are domination-pruned for good: the snapshot
	// keeps them.
	d := len(s.q.Dims)
	for ; s.kids[e.at].ref == settled || s.kids[e.at].dominated; e.at++ {
		if k := s.kids[e.at]; k.ref != settled {
			s.ctr.DominationPruned++
			sid := e.sid*uint64(s.fanout+1) + uint64(k.slot+1)
			s.snap.keep(prunedEntry{mindist: k.mindist, sid: sid, ref: k.ref, isTuple: e.tupleLevel}, s.corners[k.at:int(k.at)+d])
		}
	}
	if s.kids[e.at].ref != endOfNode {
		s.push(e)
	}
}
