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
// One rule sets its reads apart from the letter of fig. 7.1, the rule
// sigcube.Scanner has: a partition node's page is charged only after the
// boolean test has shown that one of its children qualifies. The letter reads
// every node that passes both tests and puts each child, when it is popped, to
// the domination test and then to the signature; under a conjunction assembled
// from atomic cells — every drill-down is one — nearly every leaf then passes
// at its parent, is read, and holds no tuple of both cells. The bits that say
// so are the node's own signature node in each cell, found from its path
// alone. So expand consults them first (signature.Qualify: a stage at a time
// over the survivors of the stages before and no further than the stage that
// leaves none) and skips the node unread, unrecorded in the snapshot, when
// nothing survives. What the rule can cost is a signature partial: the letter
// loads a node's bits when the first of its children that is not dominated
// gets its turn, and never when all of them are.
//
// Where the letter pushes every child of an expanded node, the search pushes
// one pending entry for the node. The entry stands at the node's qualifying
// children in ascending mindist order and is keyed by the mindist of the child
// it stands at — the moment fig. 7.1 would pop that child, with exactly the
// skyline it would find. When the entry is popped the child gets its turn:
// dominated, it is pruned, and with it the siblings dominated by now (the
// skyline only grows, so each would be at its own turn); otherwise it is
// emitted or expanded on the spot. The heap holds an entry per expanded node
// instead of one per child.
//
// Candidates that re-enter from a snapshot, and the root, were never put to
// this query's tester: each is, path by path, at its own turn and after the
// domination test, as the letter has it.
type search struct {
	q      Query
	idx    hindex.Index
	acc    *hindex.Accessor
	tester signature.Tester
	// stages qualify a node's children from bit vectors, or a path at a time
	// when the tester has none to offer.
	stages []signature.Prober
	// fanout is the index's M: SIDs are radix M+1.
	fanout int
	// verify re-checks a tuple against the relation before it enters the
	// skyline (lossy measures, §4.5: a bloom cell passes tuples that do not
	// match, and one let in would also shadow true members); nil on exact
	// cubes.
	verify func(table.TID) bool
	ctr    *stats.Counters
	cheap  *heap.Heap[entry]
	// snap takes the run's skyline, seeds included, and what it prunes by
	// domination.
	snap *Snapshot
	home *sync.Pool

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
	// ref is the tuple or the node; endOfNode closes a node's children.
	ref int32
	// slot is the child's position in its node; the root, no node's child,
	// has rootSlot, which makes its SID 0 under a parent SID of 0.
	slot int32
	at   int32
	// dominated is set when the child is found dominated, at its turn or
	// ahead of it: the snapshot keeps it.
	dominated bool
}

const (
	endOfNode = -1
	rootSlot  = -1
)

// entry is one element of the candidate heap.
type entry struct {
	mindist float64
	// sid is the SID of the node whose children the entry walks.
	sid uint64
	// at is the position in kids of the candidate whose turn comes when the
	// entry is popped.
	at int32
	// qualified is set when the candidates passed the boolean test before
	// their node was read; the others are put to it at their turns.
	qualified bool
	// tupleLevel is set when the candidates are tuples: at equal mindist they
	// go ahead of nodes.
	tupleLevel bool
	// ranked is set once the node's children from at on are in turn order;
	// until then only the one at at is in its place.
	ranked bool
}

func lessEntry(a, b entry) bool {
	if a.mindist != b.mindist {
		return a.mindist < b.mindist
	}
	return a.tupleLevel && !b.tupleLevel
}

// newSearch prepares a run over the engine's partition that grows snap's
// skyline — from the seeds the caller put there, if any — and records in snap
// what it prunes by domination and the pages it retrieved, on top of those snap
// already holds, which it does not charge; the caller pushes what the run
// starts from.
func (e *Engine) newSearch(q Query, tester signature.Tester, snap *Snapshot, ctr *stats.Counters) *search {
	idx := e.cube.Tree()
	a, _ := e.arenas.Get().(*arena)
	if a == nil {
		a = new(arena)
	}
	acc := hindex.NewAccessor(idx, ctr)
	acc.Hold(snap.held)
	return &search{
		arena:  a,
		home:   &e.arenas,
		q:      q,
		idx:    idx,
		acc:    acc,
		tester: tester,
		stages: signature.Probers(tester),
		fanout: idx.MaxFanout(),
		verify: e.cube.Verifier(q.Cond, ctr),
		ctr:    ctr,
		cheap:  heap.New[entry](lessEntry),
		snap:   snap,
	}
}

// pushRoot starts a run from the root of the partition, if it has one. No
// signature node holds a bit for it, but fig. 7.1 puts its empty path to the
// tester, and so does the search.
func (s *search) pushRoot() {
	root := s.idx.Root()
	if root == hindex.InvalidNode {
		return
	}
	at := len(s.corners)
	s.corners = s.q.appendCorner(s.corners, s.idx.NodeBox(root))
	s.kids = append(s.kids,
		candidate{mindist: sum(s.corners[at:]), ref: int32(root), slot: rootSlot, at: int32(at)},
		candidate{ref: endOfNode})
	s.push(entry{at: int32(len(s.kids) - 2), ranked: true})
}

// reenter pushes back the candidates at the given positions of prev.pruned, as
// children of the nodes they are children of: an entry per node walks them as
// it walks the children of a node this run expands.
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
func (s *search) run() {
	defer s.ctr.StartSpan("search")()
	defer func() {
		s.kids, s.corners = s.kids[:0], s.corners[:0]
		s.home.Put(s.arena)
		s.snap.held = s.acc.Held()
	}()
	d := len(s.q.Dims)
	for s.cheap.Len() > 0 {
		s.ctr.ObserveHeap(s.cheap.Len())
		e := s.cheap.Pop()
		s.ctr.StatesExamined++
		c := s.kids[e.at]
		corner := s.corners[c.at : int(c.at)+d]
		sid := e.sid*uint64(s.fanout+1) + uint64(c.slot+1)
		switch {
		case s.dominated(corner, e.tupleLevel):
			// Domination pruning (fig. 7.1) comes first. Nor will the siblings
			// that are dominated by now get a turn: the skyline only grows, so
			// each would be found dominated at its own, and a turn saved is a
			// pop and a push saved.
			s.kids[e.at].dominated = true
			for i := e.at + 1; s.kids[i].ref != endOfNode; i++ {
				if k := &s.kids[i]; !k.dominated {
					k.dominated = s.dominated(s.corners[k.at:int(k.at)+d], e.tupleLevel)
				}
			}
		case !e.qualified && !s.matches(sid):
			s.ctr.Pruned++
		case !e.tupleLevel:
			s.expand(hindex.NodeID(c.ref), sid)
		default:
			if tid := table.TID(c.ref); s.verify != nil && !s.verify(tid) {
				s.ctr.Pruned++
			} else {
				s.snap.admit(Result{TID: tid, Coord: slices.Clone(corner)}, sid)
			}
		}
		s.moveOn(e)
	}
}

// dominated applies the domination test against the current skyline: strict
// domination for tuples, weak domination of the best corner for nodes (any
// tuple in the box is then dominated or equal).
func (s *search) dominated(corner []float64, isTuple bool) bool {
	sky := s.snap.skyline
	for i := range sky {
		if isTuple {
			if dominates(sky[i].Coord, corner) {
				return true
			}
		} else if weaklyDominates(sky[i].Coord, corner) {
			return true
		}
	}
	return false
}

// matches puts the node or tuple at sid to the tester, loading what fig. 7.1's
// Test of its path loads. The signature is exact at the tuple level.
func (s *search) matches(sid uint64) bool {
	s.path = hindex.PathOf(s.path, sid, s.fanout)
	return s.tester.Test(s.path)
}

// expand qualifies the children of a node that passed both tests — from its
// path and its width, no page of the index — reads the node if any does, and
// pushes the entry that will walk those that do.
func (s *search) expand(node hindex.NodeID, sid uint64) {
	s.path = hindex.PathOf(s.path, sid, s.fanout)
	n := s.idx.NumChildren(node)
	s.live.SetAll(n)
	signature.Qualify(s.stages, s.path, &s.live)
	survivors := s.live.Ones()
	s.ctr.Pruned += int64(n - survivors)
	if survivors == 0 {
		return
	}
	s.acc.Visit(node)
	leaf := s.idx.IsLeaf(node)
	first := len(s.kids)
	for slot := s.live.NextOne(0); slot >= 0; slot = s.live.NextOne(slot + 1) {
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
	// Only the first turn is certain to come, and many a sibling is dominated
	// by the time it is over: rank the others after it.
	best := first
	for i := first + 1; i < len(s.kids); i++ {
		if before(s.kids[i], s.kids[best]) {
			best = i
		}
	}
	s.kids[first], s.kids[best] = s.kids[best], s.kids[first]
	s.kids = append(s.kids, candidate{ref: endOfNode})
	s.push(entry{sid: sid, at: int32(first), tupleLevel: leaf, qualified: true})
}

// before is the order in which a node's children get their turns.
func before(a, b candidate) bool {
	if a.mindist != b.mindist {
		return a.mindist < b.mindist
	}
	return a.slot < b.slot
}

// moveOn takes e past the child that has had its turn, to the node's next
// child with one to come.
func (s *search) moveOn(e entry) {
	if !e.ranked {
		// After the node's first turn: set the children marked dominated
		// behind the others, and rank the others.
		rest := s.kids[e.at+1:]
		live := 0
		for i := 0; rest[i].ref != endOfNode; i++ {
			if !rest[i].dominated {
				rest[i], rest[live] = rest[live], rest[i]
				live++
			}
		}
		slices.SortFunc(rest[:live], func(a, b candidate) int {
			if before(a, b) {
				return -1
			}
			return 1
		})
		e.ranked = true
	}
	// The children marked dominated are domination-pruned for good: the
	// snapshot keeps them.
	d := len(s.q.Dims)
	for first := e.at; e.at == first || s.kids[e.at].dominated; e.at++ {
		if k := s.kids[e.at]; k.dominated {
			s.ctr.DominationPruned++
			sid := e.sid*uint64(s.fanout+1) + uint64(k.slot+1)
			s.snap.keep(prunedEntry{mindist: k.mindist, sid: sid, ref: k.ref, isTuple: e.tupleLevel}, s.corners[k.at:int(k.at)+d])
		}
	}
	if s.kids[e.at].ref != endOfNode {
		s.push(e)
	}
}
