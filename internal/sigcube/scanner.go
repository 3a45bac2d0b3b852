package sigcube

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"rankcube/internal/bitvec"
	"rankcube/internal/core"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/poison"
	"rankcube/internal/ranking"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// BestFirst is the branch-and-bound search of Alg. 3 run progressively: it
// produces, one at a time and in ascending score order, the tuples matching a
// boolean condition. It is the one best-first search over the cube's
// partition: a top-k query pulls k results from it, the rank-aware selection
// operator of thesis §6.3.1 — the source a rank join pulls from — is the same
// search left open, and chapter 7's skyline search is the search under a
// Filter, ranked by mindist.
//
// Its reads follow one rule, the rule every request of the cube is charged
// by: a partition node's page is charged only after the boolean test has
// shown that one of its children qualifies. The letter of Alg. 3 (and of fig.
// 7.1) pushes every child of a node it has read and tests each when it is
// popped; under a conjunction assembled online from atomic cells (§4.3.3)
// nearly every leaf then passes at its parent — it holds some tuple of each
// cell — is read, and turns out to hold no tuple of both. The bits that say so
// are the node's own signature node in each cell, which is found from the path
// alone. So when a qualified node is popped, its children's bits are consulted
// first, a stage (signature.Stages) at a time over the survivors of the stages
// before and no further than the stage that leaves none — where the
// short-circuit of And.Test stops loading — and the node is skipped unread
// when nothing survives. Otherwise its page is charged, unless the caller
// holds it (Hold), and its survivors are scored once, in slot order, into the
// search's record: one deferred entry is pushed at the best of
// their scores, and when it is popped the recorded survivors are pushed
// qualified, in the same order, neither tested nor scored again. A search
// under a Filter drains its heap, so it pushes the survivors at once. What the
// rule can cost is a signature partial: the letter loads a node's bits when
// the first of its children is popped, and never when a filter prunes them
// all first.
//
// A search owns what it runs on from Start to Release: its candidate heap and
// record, its accessor, its function's bound and the tester it starts with. Release hands the
// tester's views back to their pool and, for a Scanner, the search to the
// scanners pool — at the end of every top-k query, rank join and governed
// scan, aborts included; the skyline's search is part of a pooled value of
// its own.
//
// A tester that offers only Test — a wrapper around one, a bloom measure, a
// disjunction — goes the same way behind the stand-in of signature.Probers,
// which asks it about the live children one path at a time.
//
// The states a caller enters (Enter, EnterRoot) were never put to the tester:
// each is, by its path, when it is popped. The states of a BestFirst[C] carry
// a payload C, which its Filter makes for each child; the Filter is put every
// child at its push and every state but deferred ones at its pop, before the
// boolean test.
//
// An entry is read where the index stores it, over the dimensions the index
// covers (hindex.Index.Rect): the function's bound scores it there, and the
// filter makes its payload from it.
type BestFirst[C any] struct {
	idx    hindex.Index
	acc    hindex.Accessor
	tester signature.Tester
	// stages qualify a node's children in sequence; none when there is no
	// predicate.
	stages []signature.Prober
	// fanout is the index's M: SIDs are radix M+1.
	fanout int
	// verify re-checks a tuple against the relation when it is popped (lossy
	// measures, §4.5). It charges a read per tuple, so it runs only for
	// tuples the search actually reaches.
	verify func(table.TID) bool
	// bound is the search's function bound to the index's covered dimensions.
	bound ranking.Bound
	// x is the caller's filter; nil on a Scanner.
	x Filter[C]
	// ctr is nil before Start and after Release.
	ctr  *stats.Counters
	done bool

	// heap holds the states in the search's order: by score, a tuple ahead of
	// a node at equal score (State.Tuple). Both are its key.
	heap heap.Keyed[queued[C]]
	// kids holds, in slot order, the scored survivors of every node the
	// search deferred, one run per deferred entry, which names its run by
	// offset (SID) and length (Ref). It is kept until the search ends: it
	// grows by at most the fanout per node read, so the read budget bounds it.
	kids []State[C]
	// out collects a top-k answer before it is copied out (take).
	out []core.Result
	// Scratch for qualifying one node's children: its decoded path and the
	// slots still live. rect holds the root's bounds.
	path []int
	live bitvec.Bits
	rect []float64
}

// queued is a State on the heap less its score and tuple flag.
type queued[C any] struct {
	sid  uint64
	ref  int32
	c    C
	kind uint8
}

// Scanner is the search whose states carry nothing: top-k, the progressive
// scan and the rank join's parts.
type Scanner = BestFirst[struct{}]

// Filter extends a search whose states carry a C.
type Filter[C any] interface {
	// Payload makes the payload of the entry the search is about to push from
	// its bounds over the index's covered dimensions, valid for the call: a
	// node's rect, a tuple's point as both lo and hi.
	Payload(lo, hi []float64) C
	// Pass is put every child the search pushes and every state it pops but
	// deferred ones, before anything else; a state it fails is dropped. Failing
	// is for good: a state that fails at its push would fail at its pop.
	Pass(st State[C]) bool
}

// State is one state of the candidate heap.
type State[C any] struct {
	Score float64
	// SID is the SID of the node's or the tuple's partition path.
	SID uint64
	// Ref is the tuple of a tuple state, the node of a node state. A deferred
	// state names its survivors in the search's record instead: SID is the
	// offset of the first, Ref their number.
	Ref int32
	// C is the caller's payload; zero-sized on a Scanner.
	C C
	// Tuple is set for tuples and for deferred leaves, which stand for tuples:
	// at equal score they go ahead of nodes so exact results settle first.
	Tuple bool
	// kind is deferred, untested or neither: a node state that is neither has
	// passed the boolean test and not been read. One byte for both flags keeps
	// two states passed to the heap's order in registers.
	kind uint8
}

const (
	// deferred marks the state standing for the qualifying children of a node
	// already read.
	deferred uint8 = 1 + iota
	// untested marks a state the boolean test has not been put to.
	untested
)

// scanners keeps finished Scanners for the next (Release).
var scanners = sync.Pool{New: func() any { return new(Scanner) }}

// Start readies s for a search over idx that ranks by f, carries payloads x
// makes and puts what it pops to x, keeping the storage of the search it ran
// before. The search takes tester over: Release hands its views back. It
// starts from the states the caller enters.
func (s *BestFirst[C]) Start(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, x Filter[C], ctr *stats.Counters) {
	poison.Fill(s.kids, State[C]{Score: poison.Score, SID: poison.SID, Ref: poison.TID})
	poison.Fill(s.out, core.Result{TID: poison.TID, Score: poison.Score})
	poison.Fill(s.rect, poison.Score)
	s.heap.Reset()
	clear(s.kids)
	s.kids = s.kids[:0]
	s.acc.Reset(idx, ctr)
	s.bound.Bind(f, idx.Dims(), idx.Domain())
	s.idx, s.tester, s.stages, s.fanout = idx, tester, signature.Probers(tester), idx.MaxFanout()
	s.verify, s.x, s.ctr, s.done = verify, x, ctr, false
}

// newScanner starts a pooled search over idx from its root, taken as
// qualified: a tester is only assembled for cells that hold at least one
// tuple.
func newScanner(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, ctr *stats.Counters) *Scanner {
	s := scanners.Get().(*Scanner)
	s.Start(idx, tester, verify, f, nil, ctr)
	if root := idx.Root(); root != hindex.InvalidNode {
		s.push(State[struct{}]{Score: s.bound.Rect(s.rootRect(root)), Ref: int32(root)})
	}
	return s
}

// Release ends the search: the views of its tester go back to their pool and,
// for a Scanner, the search to the scanners pool. A released search is
// exhausted and reads nothing more; a released Scanner is not to be used
// again. Releasing twice is releasing once.
func (s *BestFirst[C]) Release() {
	if s.ctr == nil {
		return
	}
	signature.Release(s.tester)
	s.bound.Bind(nil, nil, ranking.Box{})
	s.idx, s.tester, s.stages, s.verify, s.x, s.ctr, s.done = nil, nil, nil, nil, nil, nil, true
	if sc, ok := any(s).(*Scanner); ok {
		scanners.Put(sc)
	}
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

// Hold starts the search with the partition pages an earlier step of the
// caller's chain retrieved (Held): visits to their nodes are free.
func (s *BestFirst[C]) Hold(held []uint64) { s.acc.Hold(held) }

// Held hands over the pages the search retrieved, held ones included. The
// search is spent.
func (s *BestFirst[C]) Held() []uint64 { return s.acc.Held() }

// push adds v to the heap.
func (s *BestFirst[C]) push(v State[C]) {
	tie := uint64(1)
	if v.Tuple {
		tie = 0
	}
	s.heap.Push(heap.Item[queued[C]]{Key: v.Score, Tie: tie, Val: queued[C]{v.SID, v.Ref, v.C, v.kind}})
}

// pop removes and returns the first state in order. It panics on an empty
// heap.
func (s *BestFirst[C]) pop() State[C] {
	e := s.heap.Pop()
	return State[C]{Score: e.Key, SID: e.Val.sid, Ref: e.Val.ref, C: e.Val.c, Tuple: e.Tie == 0, kind: e.Val.kind}
}

// Enter pushes a state the boolean test has not been put to: the tuple or the
// node ref at sid, scored score, with payload c.
func (s *BestFirst[C]) Enter(score float64, sid uint64, ref int32, tuple bool, c C) {
	s.push(State[C]{Score: score, SID: sid, Ref: ref, C: c, Tuple: tuple, kind: untested})
	s.ctr.StatesGenerated++
}

// EnterRoot enters the root of the partition with its payload, if it has
// one. No signature node holds a bit for it; its empty path is put to the
// tester at its pop.
func (s *BestFirst[C]) EnterRoot() {
	if root := s.idx.Root(); root != hindex.InvalidNode {
		lo, hi := s.rootRect(root)
		s.Enter(s.bound.Rect(lo, hi), 0, int32(root), false, s.x.Payload(lo, hi))
	}
}

// rootRect returns the root's bounds over the covered dimensions in the
// search's scratch.
func (s *BestFirst[C]) rootRect(root hindex.NodeID) (lo, hi []float64) {
	d := len(s.idx.Dims())
	s.rect = slices.Grow(s.rect[:0], 2*d)[:2*d]
	lo, hi = s.rect[:d:d], s.rect[d:]
	s.idx.NodeRect(root, lo, hi)
	return lo, hi
}

// Test puts the path of sid to the search's tester, loading what fig. 7.1's
// Test of that path loads. The signature is exact at the tuple level.
func (s *BestFirst[C]) Test(sid uint64) bool {
	s.path = hindex.PathOf(s.path, sid, s.fanout)
	return s.tester.Test(s.path)
}

// Next returns the next matching tuple in ascending score order; ok is
// false when the source is exhausted.
func (s *BestFirst[C]) Next() (res core.Result, ok bool) {
	st, ok := s.Pop()
	return core.Result{TID: table.TID(st.Ref), Score: st.Score}, ok
}

// Pop returns the state of the next matching tuple in ascending score order;
// ok is false when the source is exhausted. The stream ends at the first state
// scored +Inf: everything behind it is +Inf too, outside a constrained
// function's band, and no answer.
func (s *BestFirst[C]) Pop() (st State[C], ok bool) {
	if s.done {
		return State[C]{}, false
	}
	for len(s.heap) > 0 {
		s.ctr.ObserveHeap(len(s.heap))
		e := s.pop()
		if math.IsInf(e.Score, 1) {
			break
		}
		s.ctr.StatesExamined++
		switch {
		case e.kind == deferred:
			for _, st := range s.kids[e.SID : e.SID+uint64(e.Ref)] {
				s.push(st)
			}
			s.ctr.StatesGenerated += int64(e.Ref)
		case s.x != nil && !s.x.Pass(e):
		case e.kind == untested && !s.Test(e.SID):
			s.ctr.Pruned++
		case !e.Tuple:
			s.expand(e)
		case s.verify != nil && !s.verify(table.TID(e.Ref)):
			s.ctr.Pruned++
		default:
			return e, true
		}
	}
	s.done = true
	return State[C]{}, false
}

// expand reads a qualified node if one of its children qualifies and scores
// those that do. A search under a filter or with no predicate pushes them; the
// others record them and defer them to one state at the best of their scores.
func (s *BestFirst[C]) expand(e State[C]) {
	s.qualify(e)
	survivors := s.live.Ones()
	s.ctr.Pruned += int64(s.live.Len() - survivors)
	if survivors == 0 {
		return
	}
	node := hindex.NodeID(e.Ref)
	s.acc.Visit(node)
	deferring := len(s.stages) > 0 && s.x == nil
	leaf := s.idx.IsLeaf(node)
	base := e.SID * uint64(s.fanout+1)
	first := len(s.kids)
	best := math.Inf(1)
	for slot := s.live.NextOne(0); slot >= 0; slot = s.live.NextOne(slot + 1) {
		st := s.entry(node, slot, base+uint64(slot+1), leaf)
		switch {
		case deferring:
			s.kids = append(s.kids, st)
			if st.Score < best {
				best = st.Score
			}
		case s.x != nil && !s.x.Pass(st):
		default:
			s.push(st)
			s.ctr.StatesGenerated++
		}
	}
	if deferring {
		s.push(State[C]{Score: best, SID: uint64(first), Ref: int32(survivors), Tuple: leaf, kind: deferred})
		s.ctr.StatesGenerated++
	}
}

// entry scores the entry in slot of a node the search has read, whose SID is
// sid, where the index stores it, and has the filter make its payload there.
func (s *BestFirst[C]) entry(node hindex.NodeID, slot int, sid uint64, leaf bool) State[C] {
	st := State[C]{SID: sid, Tuple: leaf}
	lo, hi := s.idx.Rect(node, slot)
	if leaf {
		st.Ref, st.Score = int32(s.idx.TupleAt(node, slot)), s.bound.Point(lo)
	} else {
		st.Ref, st.Score = int32(s.idx.ChildAt(node, slot)), s.bound.Rect(lo, hi)
	}
	if s.x != nil {
		st.C = s.x.Payload(lo, hi)
	}
	return st
}

// Resolve returns the entry at sid, a SID other than the root's, as the
// search scores it: the node or tuple in the last slot of the path, under the
// parent the rest of the path names, with the payload the filter makes. It
// charges no read — the caller's chain has read the parent — and puts the
// entry to neither the filter's Pass nor the tester.
func (s *BestFirst[C]) Resolve(sid uint64) State[C] {
	s.path = hindex.PathOf(s.path, sid, s.fanout)
	parent := s.idx.Root()
	for _, p := range s.path[:len(s.path)-1] {
		parent = s.idx.ChildAt(parent, p-1)
	}
	return s.entry(parent, s.path[len(s.path)-1]-1, sid, s.idx.IsLeaf(parent))
}

// qualify leaves in live the children of e's node that pass the boolean test.
// It needs no page of the index: the path is in the state's SID and the width
// is index metadata.
func (s *BestFirst[C]) qualify(e State[C]) {
	s.path = hindex.PathOf(s.path, e.SID, s.fanout)
	s.live.SetAll(s.idx.NumChildren(hindex.NodeID(e.Ref)))
	signature.Qualify(s.stages, s.path, &s.live)
}

// take pulls up to k results: the first k tuples the search reaches are the
// top k, and the pop after the k-th is where a bounded search would stop.
// Ties at one score come out in tuple order. They are collected and sorted in
// the search's storage, and the answer is one exact-sized copy.
func (s *BestFirst[C]) take(k int) []core.Result {
	if s.done {
		return nil
	}
	out := s.out[:0]
	for len(out) < k {
		res, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, res)
	}
	s.out = out
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b core.Result) int {
		return cmp.Or(cmp.Compare(a.Score, b.Score), cmp.Compare(a.TID, b.TID))
	})
	return slices.Clone(out)
}

// Bound reports a lower bound on the scores of all tuples not yet emitted
// (+Inf when exhausted). Rank joins use it for their stopping threshold.
func (s *BestFirst[C]) Bound() float64 {
	if s.done || len(s.heap) == 0 {
		return math.Inf(1)
	}
	return s.heap[0].Key
}
