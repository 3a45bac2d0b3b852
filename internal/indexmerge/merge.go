package indexmerge

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/poison"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Strategy selects the merge algorithm.
type Strategy int

// Merge strategies of the thesis' chapter-5 evaluation.
const (
	// StrategyPE is the double-heap progressive expansion (Alg. 5) —
	// the default.
	StrategyPE Strategy = iota
	// StrategyBL is the baseline full-expansion merge (Alg. 4).
	StrategyBL
)

// Options configures a merge run.
type Options struct {
	Strategy Strategy
	// Pruner prunes empty states by join-signature (PE+SIG); nil disables.
	Pruner Pruner
}

// Merger executes one top-k query over n merged indices of ranking width r.
// Everything that grows with the search lives in flat arenas that states,
// expansions and pendings point into by offset (a box is 2r floats, lows then
// highs), and a Merger goes from one query to the next with them, its
// accessors, its top-k heap, its bound function and its tuple table. A
// member's entries are read where its index stores them, over the dimensions
// it covers (Rect): a joint box is narrowed by them dimension by dimension,
// and a tuple filled. Joint boxes and tuples are full width, and are scored
// through one ranking.Bound over all the ranking dimensions.
type Merger struct {
	// The query, forgotten when it ends.
	indices []hindex.Index
	dims    [][]int // indices[i].Dims()
	f       ranking.Func
	opts    Options
	ctr     *stats.Counters

	acc   []hindex.Accessor // one per index
	topk  core.TopK
	bound ranking.Bound // f over all (0, …, r−1): joint boxes, tuples
	all   []int

	n, r int // indices merged, ranking dimensions
	// gheap holds the joint states at the bound of their next child, leaf
	// states (Tie 0) ahead of the others at equal bound so exact scores
	// settle the stop condition sooner.
	gheap heap.Keyed[int32]
	// lsum is the occupancy of the local heaps of the states on the global
	// heap; with len(gheap) it makes the peak-heap metric of figs. 5.12/5.16.
	lsum   int
	states []state
	exps   []expansion
	nodes  []hindex.NodeID // n per state
	boxes  []float64       // a box per state
	kids   []kid
	spans  []span  // n per expansion
	ints   []int32 // n per pending: its combo
	ts     []int32 // n per threshold expansion
	// lheaps are the local heaps ever made; the first used of them are out
	// with this query's expansions.
	lheaps []*heap.Heap[pending]
	used   int
	tuples tupleTable

	// Scratch of one step: a joint box, a combo and the limits it runs to,
	// what the pruner is asked.
	box          []float64
	combo, limit []int32
	slots        []int
	paths        [][]int
}

// mergers holds the Mergers between queries: TopK is a free function, with no
// engine to own one.
var mergers = sync.Pool{New: func() any { return new(Merger) }}

// reset empties what the last query grew in m, keeping the storage, and sets
// its top-k heap to k. In a poison build (package poison) what a query reads
// before it writes — the node and box arenas a state is carved from, the
// scratch of a step, the tuple table's index — is filled with sentinels first:
// NaN coordinates, nodes, positions and slots out of range.
func (m *Merger) reset(k int) {
	poison.Fill(m.nodes, hindex.NodeID(poison.TID))
	poison.Fill(m.boxes, poison.Score)
	poison.Fill(m.box, poison.Score)
	poison.Fill(m.combo, poison.TID)
	poison.Fill(m.limit, poison.TID)
	poison.Fill(m.slots, poison.TID)
	t := &m.tuples
	poison.Fill(t.index, poison.TID)
	clear(t.index)
	t.tids, t.got, t.points = t.tids[:0], t.got[:0], t.points[:0]
	m.gheap.Reset()
	m.topk.Reset(k)
	m.lsum, m.used = 0, 0
	m.states, m.exps, m.nodes, m.boxes = m.states[:0], m.exps[:0], m.nodes[:0], m.boxes[:0]
	m.kids, m.spans, m.ints, m.ts = m.kids[:0], m.spans[:0], m.ints[:0], m.ts[:0]
}

// release hands m back. Nothing a result holds points into it, and nothing of
// the query — its indices, function and counters, its pruner and the testers
// it loaded — stays referenced from it but what its accessors last served.
func (m *Merger) release() {
	clear(m.exps)
	clear(m.dims)
	m.bound.Bind(nil, nil, ranking.Box{})
	m.indices, m.f, m.opts, m.ctr = nil, nil, Options{}, nil
	mergers.Put(m)
}

// TopK merges the indices and returns the k lowest-scoring tuples. The
// ranking function may reference any dimension covered by some index;
// dimensions covered by no index hold the domain midpoint, so f should only
// reference indexed dimensions (thesis data model, §5.1.1).
func TopK(indices []hindex.Index, f ranking.Func, k int, opts Options, ctr *stats.Counters) ([]core.Result, error) {
	n := len(indices)
	if n == 0 {
		return nil, fmt.Errorf("indexmerge: no indices: %w", errs.ErrInvalidArgument)
	}
	m := mergers.Get().(*Merger)
	defer m.release()
	m.reset(k)
	dom := indices[0].Domain()
	m.indices, m.f, m.opts, m.ctr, m.n, m.r = indices, f, opts, ctr, n, dom.Dims()
	m.acc, m.dims = sized(m.acc, n), sized(m.dims, n)
	for i, idx := range indices {
		m.dims[i] = idx.Dims()
	}
	for _, a := range f.Attrs() {
		if !slices.ContainsFunc(m.dims, func(dims []int) bool { return slices.Contains(dims, a) }) {
			return nil, fmt.Errorf("indexmerge: ranking dimension %d not covered by any index: %w", a, errs.ErrInvalidArgument)
		}
	}
	for i, idx := range indices {
		if idx.Root() == hindex.InvalidNode {
			return nil, nil
		}
		m.acc[i].Reset(idx, ctr)
	}
	defer ctr.StartSpan("merge")()
	m.combo, m.limit, m.slots, m.paths = sized(m.combo, n), sized(m.limit, n), sized(m.slots, n), sized(m.paths, n)
	m.box = sized(m.box, 2*m.r)
	m.all = sized(m.all, m.r)
	for d := range m.all {
		m.all[d] = d
	}
	m.bound.Bind(f, m.all, dom)
	m.tuples.center = dom.AppendCenter(m.tuples.center[:0])
	m.run()
	return m.topk.Sorted(), nil
}

// sized returns s with length n, reallocated only if it has to grow; what it
// holds is whatever the last use left.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// observe reports the combined global + local heap occupancy.
func (m *Merger) observe() { m.ctr.ObserveHeap(len(m.gheap) + m.lsum) }

// pushState puts a state on the global heap at bound.
func (m *Merger) pushState(st int32, bound float64, leaf bool) {
	tie := uint64(1)
	if leaf {
		tie = 0
	}
	m.gheap.Push(heap.Item[int32]{Key: bound, Tie: tie, Val: st})
	if e := m.states[st].exp; e >= 0 {
		m.lsum += m.exps[e].lheap.Len()
	}
}

// newState reserves a state, its m nodes and its box for the caller to fill.
func (m *Merger) newState() (int32, []hindex.NodeID, []float64) {
	st, at, box := len(m.states), len(m.nodes), len(m.boxes)
	m.states = append(m.states, state{box: int32(box), exp: -1})
	m.nodes = slices.Grow(m.nodes, m.n)[:at+m.n]
	m.boxes = slices.Grow(m.boxes, 2*m.r)[:box+2*m.r]
	return int32(st), m.nodes[at:], m.boxes[box:]
}

// pushRoot pushes the joint root (I1.root, …, Im.root): the domain narrowed
// by each root's bounds, read through the scratch box.
func (m *Merger) pushRoot() {
	st, nodes, box := m.newState()
	dom := m.indices[0].Domain()
	copy(box, dom.Lo)
	copy(box[m.r:], dom.Hi)
	leaf := true
	for i, idx := range m.indices {
		nodes[i] = idx.Root()
		lo, hi := m.box[:len(m.dims[i])], m.box[m.r:][:len(m.dims[i])]
		idx.NodeRect(nodes[i], lo, hi)
		m.intersect(box, m.dims[i], lo, hi)
		leaf = leaf && idx.IsLeaf(nodes[i])
	}
	m.pushState(st, m.lowerBound(box), leaf)
	m.ctr.StatesGenerated++
}

// intersect narrows box to its intersection with lo..hi, bounds over dims.
func (m *Merger) intersect(box []float64, dims []int, lo, hi []float64) {
	for j, d := range dims {
		if lo[j] > box[d] {
			box[d] = lo[j]
		}
		if hi[j] < box[m.r+d] {
			box[m.r+d] = hi[j]
		}
	}
}

// lowerBound is f's lower bound over a box of the arena.
func (m *Merger) lowerBound(box []float64) float64 {
	return m.bound.Rect(box[:m.r], box[m.r:2*m.r])
}

// run is the query-processing loop: Alg. 4 for StrategyBL (each popped state
// fully expands), Alg. 5 for StrategyPE (each popped state yields its next
// best child and re-enters the heap).
func (m *Merger) run() {
	m.pushRoot()
	for len(m.gheap) > 0 {
		m.observe()
		e := m.gheap.Pop()
		st, bound := e.Val, e.Key
		if x := m.states[st].exp; x >= 0 {
			m.lsum -= m.exps[x].lheap.Len()
		}
		m.ctr.StatesExamined++
		if m.topk.Full() && m.topk.Worst().Score <= bound {
			return
		}
		if e.Tie == 0 {
			m.processLeafState(st)
			continue
		}
		if m.states[st].exp < 0 && !m.initExpansion(st, bound) {
			continue
		}
		x := &m.exps[m.states[st].exp]
		if m.opts.Strategy == StrategyBL {
			m.expandFully(x)
			continue
		}
		// S.get_next of §5.2.1: the state's next best child goes on the global
		// heap, and the state back beside it at the bound of the one after.
		if x.ts < 0 {
			m.nextNeighborhood(x)
		} else {
			m.nextThreshold(x)
		}
		if next := m.peekBound(x); !math.IsInf(next, 1) {
			m.pushState(st, next, false)
		}
	}
}

// processLeafState retrieves the member leaves of a leaf state and merges
// their tuples through the partial-tuple table. Members already retrieved are
// skipped — redundant states (§5.1.3) thereby cost nothing. A complete tuple
// scoring +Inf (outside a constrained function's band) is no answer.
func (m *Merger) processLeafState(st int32) {
	t, full := &m.tuples, uint64(1)<<uint(m.n)-1
	for i, nid := range m.nodes[int(st)*m.n:][:m.n] {
		if m.acc[i].Retrieved(nid) {
			continue
		}
		for slot, n := 0, m.acc[i].Visit(nid); slot < n; slot++ {
			tid := m.indices[i].TupleAt(nid, slot)
			pt, _ := m.indices[i].Rect(nid, slot)
			at := t.find(tid)
			point := t.points[at*m.r:][:m.r]
			for j, d := range m.dims[i] {
				point[d] = pt[j]
			}
			t.got[at] |= 1 << uint(i)
			if t.got[at] != full {
				continue
			}
			if score := m.bound.Point(point); !math.IsInf(score, 1) {
				m.topk.Offer(core.Result{TID: tid, Score: score})
			}
		}
	}
}

// tupleTable holds the partially merged tuples (the sort-merge hashtable h of
// §5.1.2): an open-addressed TID index over dense per-tuple columns. A tuple
// every index has contributed to stays, complete: each index holds it in one
// leaf and a leaf is retrieved once, so it is never looked up again.
type tupleTable struct {
	// index is probed linearly from a TID's hash; a cell holds 1 + the
	// tuple's position in the columns, 0 while free. Its length is a power of
	// two at least twice the tuples held.
	index  []int32
	tids   []table.TID
	got    []uint64  // the indices that have contributed to the tuple
	points []float64 // r per tuple; dimensions not yet contributed hold center's
	center []float64 // the domain midpoint
}

// find returns the position of tid in the columns, adding it if it is new.
func (t *tupleTable) find(tid table.TID) int {
	if 2*(len(t.tids)+1) > len(t.index) {
		t.index = make([]int32, max(2*len(t.index), 1024))
		for at, held := range t.tids {
			t.index[t.cell(held)] = int32(at + 1)
		}
	}
	c := t.cell(tid)
	if t.index[c] == 0 {
		t.tids, t.got, t.points = append(t.tids, tid), append(t.got, 0), append(t.points, t.center...)
		t.index[c] = int32(len(t.tids))
	}
	return int(t.index[c] - 1)
}

// cell returns the index cell holding tid, or the free one it belongs in.
func (t *tupleTable) cell(tid table.TID) uint32 {
	mask := uint32(len(t.index) - 1)
	c := uint32(tid) * 0x9E3779B1
	for c = (c ^ c>>15) & mask; t.index[c] != 0 && t.tids[t.index[c]-1] != tid; c = (c + 1) & mask {
	}
	return c
}
