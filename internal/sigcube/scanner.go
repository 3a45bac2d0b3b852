package sigcube

import (
	"math"
	"slices"
	"sort"

	"rankcube/internal/bitvec"
	"rankcube/internal/core"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Scanner is the branch-and-bound search of Alg. 3 run progressively: it
// produces, one at a time and in ascending score order, the tuples matching
// a boolean condition. A top-k query pulls k results from it; the rank-aware
// selection operator of thesis §6.3.1 — the source a rank join pulls from —
// is the same scanner left open.
//
// The candidate heap only ever holds states that already passed the boolean
// test. Where the letter of Alg. 3 pushes every child of an expanded node
// and tests each when it is popped, the scanner pushes one pending entry for
// the node, scored at the best of its children — the score at which the
// first of them would have been popped, and the signature node holding their
// bits loaded. When the pending entry is popped that signature node is
// fetched, through the same load path, and only the children whose bit is
// set are scored and pushed. A conjunction of cells is a sequence of such
// stages (signature.Stages), each re-pending the node at the best of the
// children that survived so far, which is when the short-circuiting per-path
// test would first have consulted the next cell. Signature loads therefore
// happen at the scores, and so in the number, they did before; what shrinks
// is the heap and the work spent on entries that never qualify.
//
// A tester that offers only Test — a wrapper around one, a bloom measure, a
// disjunction — cannot say what it would load for which child, so the pending
// entry of an expanded node then hands over its children one at a time, in
// score order: each is tested at the score Alg. 3 would have popped it, never
// sooner, and pushed only if it passes.
type Scanner struct {
	idx    hindex.Index
	acc    *hindex.Accessor
	tester signature.Tester
	// stages qualify a node's children from bit vectors; opaque is set when
	// the tester has none to offer.
	stages []signature.Prober
	opaque bool
	// fanout is the index's M: SIDs are radix M+1.
	fanout int
	// verify re-checks a tuple against the relation when it is popped (lossy
	// measures, §4.5). It charges a read per tuple, so it runs only for
	// tuples the search actually reaches.
	verify func(table.TID) bool
	f      ranking.Func
	ctr    *stats.Counters
	cheap  *heap.Heap[scanEntry]
	done   bool

	// Scratch for qualifying one node's children: its decoded path and the
	// slots still live.
	path []int
	live bitvec.Bits
	// ranked holds, for each node expanded under an opaque tester, its
	// children in ascending score order, closed by a record with ref < 0.
	ranked []rankedChild
}

// rankedChild is one child of a node awaiting its turn at an opaque tester.
type rankedChild struct {
	score float64
	ref   int32
	slot  int32
}

// scanEntry is one state of the candidate heap.
type scanEntry struct {
	score float64
	// sid is the SID of the node's partition path (unused for tuples).
	sid uint64
	// ref is the tuple of a tuple entry, the node of a node or pending entry;
	// under an opaque tester a pending entry's ref is the position in ranked
	// of the child to test next.
	ref int32
	// stage is qualified for a tuple or node that passed the boolean test,
	// else the stage node ref's children go through next (0 when opaque).
	stage int16
	// tupleLevel is set for tuples and for pending leaves, which stand for
	// tuples: at equal score they go ahead of nodes so exact results settle
	// first.
	tupleLevel bool
}

const qualified = -1

func lessScanEntry(a, b scanEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.tupleLevel && !b.tupleLevel
}

// newScanner starts a search over idx. The root is taken as qualified: a
// tester is only assembled for cells that hold at least one tuple.
func newScanner(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, ctr *stats.Counters) *Scanner {
	s := &Scanner{
		idx:    idx,
		tester: tester,
		fanout: idx.MaxFanout(),
		verify: verify,
		f:      f,
		ctr:    ctr,
		cheap:  heap.New[scanEntry](lessScanEntry),
	}
	root := idx.Root()
	if root == hindex.InvalidNode {
		s.done = true
		return s
	}
	stages, ok := signature.Stages(tester)
	s.stages, s.opaque = stages, !ok
	s.acc = hindex.NewAccessor(idx, ctr)
	s.cheap.Push(scanEntry{score: f.LowerBound(idx.NodeBox(root)), ref: int32(root), stage: qualified})
	return s
}

// Scan opens a rank-aware selection over the cube. The scanner is exhausted
// from the start when the condition provably matches nothing.
func (c *Cube) Scan(cond core.Cond, f ranking.Func, ctr *stats.Counters) (*Scanner, error) {
	defer ctr.StartSpan("tester")()
	tester, any, err := c.TesterFor(cond, ctr)
	if err != nil {
		return nil, err
	}
	if !any {
		return &Scanner{done: true}, nil
	}
	return newScanner(c.rt, tester, c.Verifier(cond, ctr), f, ctr), nil
}

// Next returns the next matching tuple in ascending score order; ok is
// false when the source is exhausted.
func (s *Scanner) Next() (res core.Result, ok bool) {
	if s.done {
		return core.Result{}, false
	}
	for s.cheap.Len() > 0 {
		s.ctr.ObserveHeap(s.cheap.Len())
		e := s.cheap.Pop()
		s.ctr.StatesExamined++
		switch {
		case e.stage != qualified && s.opaque:
			s.testNext(e)
		case e.stage != qualified:
			s.qualify(e)
		case e.tupleLevel:
			tid := table.TID(e.ref)
			if s.verify != nil && !s.verify(tid) {
				s.ctr.Pruned++
				continue
			}
			return core.Result{TID: tid, Score: e.score}, true
		default:
			s.expand(e)
		}
	}
	s.done = true
	return core.Result{}, false
}

// expand reads a qualified node and, when there is a boolean test to run,
// defers its children to a pending entry at the best of their scores.
func (s *Scanner) expand(e scanEntry) {
	n := s.acc.Visit(hindex.NodeID(e.ref))
	if s.opaque {
		s.rank(e, n)
		return
	}
	s.live.SetAll(n)
	if len(s.stages) == 0 {
		s.pushLive(e)
		return
	}
	s.pend(e, 0)
}

// qualify runs the pending entry's stage over the children that survived
// the stages before it, then pushes the survivors or defers them again.
func (s *Scanner) qualify(e scanEntry) {
	node := hindex.NodeID(e.ref)
	s.path = hindex.PathOf(s.path, e.sid, s.fanout)
	s.live.SetAll(s.idx.NumChildren(node))
	stage := int(e.stage)
	// Earlier stages are resident by now: re-probing them costs no reads,
	// and saves carrying a survivor set in every pending entry.
	for _, earlier := range s.stages[:stage] {
		earlier.Probe(s.path, &s.live)
	}
	before := s.live.Ones()
	s.stages[stage].Probe(s.path, &s.live)
	s.ctr.Pruned += int64(before - s.live.Ones())
	if stage+1 < len(s.stages) {
		s.pend(e, stage+1)
		return
	}
	s.pushLive(e)
}

// pend pushes one entry standing for the live children of e's node, scored
// at their minimum, to be qualified by the given stage.
func (s *Scanner) pend(e scanEntry, stage int) {
	node := hindex.NodeID(e.ref)
	leaf := s.idx.IsLeaf(node)
	best, any := math.Inf(1), false
	for slot := s.live.NextOne(0); slot >= 0; slot = s.live.NextOne(slot + 1) {
		if _, score := s.child(node, leaf, slot); score <= best {
			best, any = score, true
		}
	}
	if !any {
		return
	}
	s.cheap.Push(scanEntry{score: best, sid: e.sid, ref: e.ref, stage: int16(stage), tupleLevel: leaf})
	s.ctr.StatesGenerated++
}

// pushLive pushes the live children of e's node as qualified entries.
func (s *Scanner) pushLive(e scanEntry) {
	node := hindex.NodeID(e.ref)
	leaf := s.idx.IsLeaf(node)
	base := e.sid * uint64(s.fanout+1)
	for slot := s.live.NextOne(0); slot >= 0; slot = s.live.NextOne(slot + 1) {
		ref, score := s.child(node, leaf, slot)
		s.cheap.Push(scanEntry{score: score, sid: base + uint64(slot+1), ref: ref, stage: qualified, tupleLevel: leaf})
		s.ctr.StatesGenerated++
	}
}

// rank scores the n children of e's node, an opaque tester's turn at each
// still to come, and pushes one pending entry at the best of them.
func (s *Scanner) rank(e scanEntry, n int) {
	if n == 0 {
		return
	}
	node := hindex.NodeID(e.ref)
	leaf := s.idx.IsLeaf(node)
	first := len(s.ranked)
	for slot := 0; slot < n; slot++ {
		ref, score := s.child(node, leaf, slot)
		s.ranked = append(s.ranked, rankedChild{score: score, ref: ref, slot: int32(slot)})
	}
	slices.SortFunc(s.ranked[first:], func(a, b rankedChild) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return int(a.slot - b.slot)
	})
	s.ranked = append(s.ranked, rankedChild{ref: -1})
	s.cheap.Push(scanEntry{score: s.ranked[first].score, sid: e.sid, ref: int32(first), tupleLevel: leaf})
	s.ctr.StatesGenerated++
}

// testNext puts the pending entry's next child to the opaque tester, pushes
// it if it passes, and defers the rest of the node to the score of the child
// after it.
func (s *Scanner) testNext(e scanEntry) {
	c, next := s.ranked[e.ref], s.ranked[e.ref+1]
	s.path = append(hindex.PathOf(s.path, e.sid, s.fanout), int(c.slot)+1)
	if s.tester.Test(s.path) {
		sid := e.sid*uint64(s.fanout+1) + uint64(c.slot+1)
		s.cheap.Push(scanEntry{score: c.score, sid: sid, ref: c.ref, stage: qualified, tupleLevel: e.tupleLevel})
		s.ctr.StatesGenerated++
	} else {
		s.ctr.Pruned++
	}
	if next.ref >= 0 {
		e.score, e.ref = next.score, e.ref+1
		s.cheap.Push(e)
		s.ctr.StatesGenerated++
	}
}

// child scores the entry in one slot of a visited node: the exact score of a
// leaf's tuple, the lower bound of an internal node's child.
func (s *Scanner) child(node hindex.NodeID, leaf bool, slot int) (ref int32, score float64) {
	if leaf {
		tid, pt := s.acc.Tuple(node, slot)
		return int32(tid), s.f.Eval(pt)
	}
	kid, box := s.acc.Child(node, slot)
	return int32(kid), s.f.LowerBound(box)
}

// take pulls up to k results: the first k tuples the search reaches are the
// top k, and the pop after the k-th is where a bounded search would stop.
// Ties at one score come out in tuple order.
func (s *Scanner) take(k int) []core.Result {
	var out []core.Result
	for len(out) < k {
		res, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, res)
	}
	sort.Slice(out, func(a, b int) bool { return core.WorseResult(out[b], out[a]) })
	return out
}

// Bound reports a lower bound on the scores of all tuples not yet emitted
// (+Inf when exhausted). Rank joins use it for their stopping threshold.
func (s *Scanner) Bound() float64 {
	if s.done || s.cheap.Len() == 0 {
		return math.Inf(1)
	}
	return s.cheap.Min().score
}
