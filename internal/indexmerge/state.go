// Package indexmerge implements the index-merge paradigm of thesis
// chapter 5: top-k search over the space of joint states composed of nodes
// from multiple hierarchical indices, supporting ad hoc (non-monotone)
// ranking functions. It provides the baseline full-expansion merge (Alg. 4),
// the double-heap progressive merge with neighborhood and threshold
// expansion (Alg. 5/6), and join-signature pruning of empty states (§5.3).
package indexmerge

import (
	"cmp"
	"math"
	"slices"

	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
)

// state is one joint state (n1, …, nm): its box in the arena, and its
// expansion once it has been popped (-1 before). State st's nodes are
// nodes[st·n:][:n].
type state struct {
	box, exp int32
}

// kid is one expansion candidate of a state member: either a child of a
// non-leaf member node or the member itself when it is already a leaf ("If
// Ii.ni is a leaf node, Ii.ni itself is used in the Cartesian products",
// §5.1.1).
type kid struct {
	bound float64 // f'(e): lower bound with other members at state box
	id    hindex.NodeID
	slot  int32 // 0-based slot in the member node (0 for leaf-self)
}

// span is one member's candidates, kids[at:at+n] in expansion order: the
// entries of its node, whose bounds narrow a joint box, or, with node
// InvalidNode, the member itself.
type span struct {
	at, n int32
	node  hindex.NodeID
}

// expansion holds a state's progressive get_next machinery (§5.2).
type expansion struct {
	box     int32 // the state's box in the arena
	members int32 // spans[members:members+n]
	lheap   *heap.Heap[pending]
	// ts[ts:ts+n] are threshold expansion's positions, one per member (next
	// list index to introduce); -1 under neighborhood expansion.
	ts int32
	// pruner combo tester for this state (nil = no pruning).
	combos ComboTester
}

// pending is one generated-but-not-returned child combo in a local heap; the
// combo, a position per member's candidates, is ints[combo:combo+n].
type pending struct {
	bound float64
	combo int32
	empty bool // known-empty (kept for neighborhood traversal only)
}

// lessPending is a total order — a state generates a combo once — so a local
// heap pops the same pending whatever order its pushes came in.
func (m *Merger) lessPending(a, b pending) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	// Deterministic tie-break on combo lexicographic order.
	return slices.Compare(m.ints[a.combo:][:m.n], m.ints[b.combo:][:m.n]) < 0
}

// members returns the candidate lists of expansion x.
func (m *Merger) members(x *expansion) []span { return m.spans[x.members:][:m.n] }

// kid returns the candidate at position pos of a member's list.
func (m *Merger) kid(sp span, pos int32) kid { return m.kids[sp.at+pos] }

// initExpansion prepares a state popped at bound for progressive expansion:
// member child lists with f' bounds, the expansion strategy, and the state's
// signature tester. It reports false, and prepares nothing, for a state the
// signature does not know: one reached through a bloom false positive, which
// is empty (§5.3.3) and produces no children.
func (m *Merger) initExpansion(st int32, bound float64) bool {
	nodes := m.nodes[int(st)*m.n:][:m.n]
	var x expansion
	if m.opts.Pruner != nil {
		for i, idx := range m.indices {
			m.paths[i] = idx.AppendPath(m.paths[i][:0], nodes[i])
		}
		known := false
		if x.combos, known = m.opts.Pruner.Load(m.paths, m.ctr); !known {
			return false
		}
	}
	if m.used == len(m.lheaps) {
		m.lheaps = append(m.lheaps, heap.New[pending](m.lessPending))
	}
	x.lheap = m.lheaps[m.used]
	x.lheap.Reset()
	m.used++

	x.box, x.members = m.states[st].box, int32(len(m.spans))
	sbox := m.boxes[x.box:][:2*m.r]
	for i, idx := range m.indices {
		nid, sp := nodes[i], span{at: int32(len(m.kids)), n: 1, node: hindex.InvalidNode}
		if idx.IsLeaf(nid) {
			m.kids = append(m.kids, kid{id: nid, bound: bound})
			m.spans = append(m.spans, sp)
			continue
		}
		sp.n, sp.node = int32(m.acc[i].Visit(nid)), nid
		for slot := int32(0); slot < sp.n; slot++ {
			copy(m.box, sbox)
			lo, hi := idx.Rect(nid, int(slot))
			m.intersect(m.box, m.dims[i], lo, hi)
			m.kids = append(m.kids, kid{id: idx.ChildAt(nid, int(slot)), slot: slot, bound: m.lowerBound(m.box)})
		}
		// Sorted by f' (ties by value order): threshold expansion's sorted
		// lists (§5.2.3), and neighborhood expansion's sequence of non-decreasing
		// f' — attribute order for monotone functions, distance-from-extreme
		// order for semi-monotone ones, f' coming from box lower bounds.
		slices.SortFunc(m.kids[sp.at:], func(a, b kid) int {
			return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.slot, b.slot))
		})
		m.spans = append(m.spans, sp)
	}

	x.ts = -1
	if !m.useNeighborhood(nodes) {
		x.ts = int32(len(m.ts))
		for range m.n {
			m.ts = append(m.ts, 1)
		}
	}
	m.states[st].exp = int32(len(m.exps))
	m.exps = append(m.exps, x)
	// The seed: all members at sequence position 0.
	clear(m.combo)
	m.push(&m.exps[len(m.exps)-1], m.combo)
	return true
}

// useNeighborhood decides whether neighborhood expansion applies: the
// function must be monotone or semi-monotone and every non-leaf member must
// come from a value-ordered (B+-tree) index (§5.2.2).
func (m *Merger) useNeighborhood(nodes []hindex.NodeID) bool {
	_, mono := m.f.(ranking.Monotone)
	_, semi := m.f.(ranking.SemiMonotone)
	if !mono && !semi {
		return false
	}
	for i, idx := range m.indices {
		if idx.IsLeaf(nodes[i]) {
			continue
		}
		vo, ok := idx.(hindex.ValueOrdered)
		if !ok || !vo.ValueOrdered() {
			return false
		}
	}
	return true
}

// mayContain puts a combo to the state's signature tester.
func (m *Merger) mayContain(x *expansion, combo []int32) bool {
	if x.combos == nil {
		return true
	}
	for i, sp := range m.members(x) {
		m.slots[i] = int(m.kid(sp, combo[i]).slot)
	}
	return x.combos.MayContain(m.slots)
}

// push creates a pending child combo, consulting the pruner. Empty combos
// are dropped under threshold expansion and kept (marked) under
// neighborhood expansion, where they are still needed to reach their
// neighbors (§5.3.3).
func (m *Merger) push(x *expansion, combo []int32) {
	empty := !m.mayContain(x, combo)
	if empty {
		m.ctr.Pruned++
		if x.ts >= 0 {
			return
		}
	}
	bound := m.lowerBound(m.joint(x, combo, m.box))
	if math.IsInf(bound, 1) {
		return
	}
	m.ints = append(m.ints, combo...)
	x.lheap.Push(pending{combo: int32(len(m.ints) - m.n), bound: bound, empty: empty})
	m.ctr.StatesGenerated++
	m.observe()
}

// joint composes the joint box of a child combo into box — the state's box
// narrowed by the bounds of each member's entry — and returns it.
func (m *Merger) joint(x *expansion, combo []int32, box []float64) []float64 {
	copy(box, m.boxes[x.box:][:2*m.r])
	for i, sp := range m.members(x) {
		if sp.node != hindex.InvalidNode {
			lo, hi := m.indices[i].Rect(sp.node, int(m.kid(sp, combo[i]).slot))
			m.intersect(box, m.dims[i], lo, hi)
		}
	}
	return box
}

// advance steps combo to the next in lexicographic order with every
// coordinate below its limit, leaving coordinate hold alone; it reports false,
// with the others back at 0, after the last.
func advance(combo, limit []int32, hold int) bool {
	for i := len(combo) - 1; i >= 0; i-- {
		if i == hold {
			continue
		}
		if combo[i]++; combo[i] < limit[i] {
			return true
		}
		combo[i] = 0
	}
	return false
}

// nextNeighborhood pops the best pending combo and pushes its staircase
// neighbors: coordinate c may advance only when all later coordinates are
// at their start, which enumerates every combo exactly once without a
// duplicate hash table.
func (m *Merger) nextNeighborhood(x *expansion) {
	members, combo := m.members(x), m.combo
	for x.lheap.Len() > 0 {
		p := x.lheap.Pop()
		copy(combo, m.ints[p.combo:])
		// The last coordinate off its start, and those after it, may advance.
		c := m.n - 1
		for c > 0 && combo[c] == 0 {
			c--
		}
		for ; c < m.n; c++ {
			if combo[c]+1 < members[c].n {
				combo[c]++
				m.push(x, combo)
				combo[c]--
			}
		}
		if !p.empty {
			m.buildChild(x, combo, p.bound)
			return
		}
	}
}

// nextThreshold runs the sort-merge search of §5.2.3: it returns the local
// heap root once no future combo can beat it, advancing the member with the
// best threshold bound otherwise.
func (m *Merger) nextThreshold(x *expansion) {
	ts := m.ts[x.ts:][:m.n]
	for {
		thr, best := m.threshold(x)
		if x.lheap.Len() > 0 && (best < 0 || x.lheap.Min().bound <= thr) {
			p := x.lheap.Pop()
			m.buildChild(x, m.ints[p.combo:][:m.n], p.bound)
			return
		}
		if best < 0 {
			return
		}
		// Advance member best: generate the Cartesian band
		// [0..t_j−1] × … × [t_best] × … (§5.2.3) — all combos whose coordinate
		// at best equals its threshold and whose others are below theirs. A
		// threshold never passes the end of its list, so it is the limit.
		clear(m.combo)
		m.combo[best] = ts[best]
		for more := true; more; more = advance(m.combo, ts, best) {
			m.push(x, m.combo)
		}
		ts[best]++
	}
}

// threshold reports the least f' among the members' next candidates to
// introduce and the member it belongs to (-1 once every list is exhausted):
// no combo still to be generated can score below it.
func (m *Merger) threshold(x *expansion) (float64, int) {
	thr, best := math.Inf(1), -1
	for i, sp := range m.members(x) {
		if t := m.ts[int(x.ts)+i]; t < sp.n {
			if b := m.kid(sp, t).bound; b < thr {
				thr, best = b, i
			}
		}
	}
	return thr, best
}

// peekBound reports the bound of the state's next child (+Inf when
// exhausted for neighborhood; threshold states may still surface future
// combos bounded by the threshold value).
func (m *Merger) peekBound(x *expansion) float64 {
	bound := math.Inf(1)
	if x.lheap.Len() > 0 {
		bound = x.lheap.Min().bound
	}
	if x.ts >= 0 {
		thr, _ := m.threshold(x)
		bound = min(bound, thr)
	}
	return bound
}

// buildChild materializes the state of a child combo and pushes it on the
// global heap at bound.
func (m *Merger) buildChild(x *expansion, combo []int32, bound float64) {
	st, nodes, box := m.newState()
	m.joint(x, combo, box)
	leaf := true
	for i, sp := range m.members(x) {
		nodes[i] = m.kid(sp, combo[i]).id
		leaf = leaf && m.indices[i].IsLeaf(nodes[i])
	}
	m.pushState(st, bound, leaf)
}

// expandFully is Alg. 4's full Cartesian expansion.
func (m *Merger) expandFully(x *expansion) {
	members, combo, limit := m.members(x), m.combo, m.limit
	clear(combo)
	for i, sp := range members {
		limit[i] = sp.n
	}
	for more := true; more; more = advance(combo, limit, -1) {
		bound := m.lowerBound(m.joint(x, combo, m.box))
		if math.IsInf(bound, 1) {
			continue
		}
		if !m.mayContain(x, combo) {
			m.ctr.Pruned++
			continue
		}
		m.buildChild(x, combo, bound)
		m.ctr.StatesGenerated++
	}
	m.observe()
}
