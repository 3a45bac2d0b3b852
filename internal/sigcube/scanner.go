package sigcube

import (
	"math"
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
// One rule sets it apart from the letter of Alg. 3: a partition node's page
// is charged only after the boolean test has shown that one of its children
// qualifies. The letter pushes every child of a node it has read and tests
// each when it is popped; under a conjunction assembled online from atomic
// cells (§4.3.3) nearly every leaf then passes at its parent — it holds some
// tuple of each cell — is read, and turns out to hold no tuple of both. The
// bits that say so are the node's own signature node in each cell, which is
// found from the path alone. So when a qualified node is popped, its
// children's bits are consulted first, a stage (signature.Stages) at a time
// over the survivors of the stages before and no further than the stage that
// leaves none — where the short-circuit of And.Test stops loading — and the
// node is skipped unread when nothing survives. Otherwise its page is charged
// and one deferred entry is pushed at the best survivor's score; when that is
// popped the survivors are derived again from the stages, resident by then,
// and pushed qualified. The candidate heap therefore only ever holds states
// that passed the boolean test, and a node's survivors only once the search
// has reached the first of them.
//
// A tester that offers only Test — a wrapper around one, a bloom measure, a
// disjunction — goes the same way behind the stand-in of signature.Probers,
// which asks it about the live children one path at a time.
type Scanner struct {
	idx hindex.Index
	acc *hindex.Accessor
	// stages qualify a node's children in sequence; none when there is no
	// predicate.
	stages []signature.Prober
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
}

// scanEntry is one state of the candidate heap.
type scanEntry struct {
	score float64
	// sid is the SID of the node's partition path (unused for tuples).
	sid uint64
	// ref is the tuple of a tuple entry, the node of a node or deferred entry.
	ref int32
	// deferred marks the entry standing for the qualifying children of a node
	// already read; a node entry that is not deferred has passed the boolean
	// test and not been read.
	deferred bool
	// tupleLevel is set for tuples and for deferred leaves, which stand for
	// tuples: at equal score they go ahead of nodes so exact results settle
	// first.
	tupleLevel bool
}

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
	s.stages = signature.Probers(tester)
	s.acc = hindex.NewAccessor(idx, ctr)
	s.cheap.Push(scanEntry{score: f.LowerBound(idx.NodeBox(root)), ref: int32(root)})
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
// false when the source is exhausted. The stream ends at the first entry
// scored +Inf: everything behind it is +Inf too, outside a constrained
// function's band, and no answer.
func (s *Scanner) Next() (res core.Result, ok bool) {
	if s.done {
		return core.Result{}, false
	}
	for s.cheap.Len() > 0 {
		s.ctr.ObserveHeap(s.cheap.Len())
		e := s.cheap.Pop()
		if math.IsInf(e.score, 1) {
			break
		}
		s.ctr.StatesExamined++
		switch {
		case e.deferred:
			s.qualify(e)
			s.pushLive(e)
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

// expand reads a qualified node if one of its children qualifies, and defers
// those that do to one entry at the best of their scores.
func (s *Scanner) expand(e scanEntry) {
	s.qualify(e)
	survivors := s.live.Ones()
	s.ctr.Pruned += int64(s.live.Len() - survivors)
	if survivors == 0 {
		return
	}
	node := hindex.NodeID(e.ref)
	s.acc.Visit(node)
	if len(s.stages) == 0 {
		s.pushLive(e)
		return
	}
	leaf := s.idx.IsLeaf(node)
	best := math.Inf(1)
	for slot := s.live.NextOne(0); slot >= 0; slot = s.live.NextOne(slot + 1) {
		if _, score := s.child(node, leaf, slot); score < best {
			best = score
		}
	}
	s.cheap.Push(scanEntry{score: best, sid: e.sid, ref: e.ref, deferred: true, tupleLevel: leaf})
	s.ctr.StatesGenerated++
}

// qualify leaves in live the children of e's node that pass the boolean test.
// It needs no page of the index: the path is in the entry's SID and the width
// is index metadata.
func (s *Scanner) qualify(e scanEntry) {
	s.path = hindex.PathOf(s.path, e.sid, s.fanout)
	s.live.SetAll(s.idx.NumChildren(hindex.NodeID(e.ref)))
	signature.Qualify(s.stages, s.path, &s.live)
}

// pushLive pushes the live children of e's node as qualified entries.
func (s *Scanner) pushLive(e scanEntry) {
	node := hindex.NodeID(e.ref)
	leaf := s.idx.IsLeaf(node)
	base := e.sid * uint64(s.fanout+1)
	for slot := s.live.NextOne(0); slot >= 0; slot = s.live.NextOne(slot + 1) {
		ref, score := s.child(node, leaf, slot)
		s.cheap.Push(scanEntry{score: score, sid: base + uint64(slot+1), ref: ref, tupleLevel: leaf})
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
