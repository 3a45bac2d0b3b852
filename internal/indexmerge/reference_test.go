package indexmerge

// The letter-of-the-thesis merge loop, kept as the oracle of
// TestMergeMatchesReference: Alg. 4 (full expansion), Alg. 5/6 (the double
// heap with threshold and neighbourhood expansion) and PE+SIG, as they stood
// before the kernel was rebuilt over flat arenas — one heap object per joint
// state, a composed box per child, a map of partial tuples, member lists from
// the materializing Children/LeafEntries. Its types and functions carry a ref
// prefix (the comments still call them by their old names); nothing else
// differs from the loop that was replaced.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Merger executes one top-k query over m merged indices.
type refMerger struct {
	indices []hindex.Index
	acc     []hindex.Accessor
	f       ranking.Func
	k       int
	opts    Options
	pruner  Pruner
	ctr     *stats.Counters

	gheap *heap.Heap[*refState]
	topk  *heap.Bounded[core.Result]
	// partial holds partially merged tuples (the sort-merge hashtable h of
	// §5.1.2).
	partial map[table.TID]*refPartial
}

type refPartial struct {
	point []float64
	got   int // bitmask of contributing indices
}

// TopK merges the indices and returns the k lowest-scoring tuples. The
// ranking function may reference any dimension covered by some index;
// dimensions covered by no index hold the domain midpoint, so f should only
// reference indexed dimensions (thesis data model, §5.1.1).
func refTopK(indices []hindex.Index, f ranking.Func, k int, opts Options, ctr *stats.Counters) ([]core.Result, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("indexmerge: no indices: %w", errs.ErrInvalidArgument)
	}
	covered := make(map[int]bool)
	for _, idx := range indices {
		for _, d := range idx.Dims() {
			covered[d] = true
		}
	}
	for _, a := range f.Attrs() {
		if !covered[a] {
			return nil, fmt.Errorf("indexmerge: ranking dimension %d not covered by any index: %w", a, errs.ErrInvalidArgument)
		}
	}
	m := &refMerger{
		indices: indices,
		acc:     make([]hindex.Accessor, len(indices)),
		f:       f,
		k:       k,
		opts:    opts,
		ctr:     ctr,
		pruner:  opts.Pruner,
		gheap:   heap.New[*refState](refLessState),
		topk:    heap.NewBounded[core.Result](k, core.WorseResult),
		partial: make(map[table.TID]*refPartial),
	}
	for i, idx := range indices {
		if idx.Root() == hindex.InvalidNode {
			return nil, nil
		}
		m.acc[i].Reset(idx, ctr)
	}
	defer ctr.StartSpan("merge")()
	m.run()
	return m.topk.Sorted(), nil
}

func refLessState(a, b *refState) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	// Leaf states first so exact scores settle the stop condition sooner.
	return a.leaf && !b.leaf
}

// heapSize reports combined global + local heap occupancy (the peak heap
// metric of figs. 5.12/5.16).
func (m *refMerger) heapSize() int {
	n := m.gheap.Len()
	for _, it := range m.gheap.Items() {
		if it.exp != nil {
			n += it.exp.lheap.Len()
		}
	}
	return n
}

// rootState builds the joint root (I1.root, …, Im.root).
func (m *refMerger) rootState() *refState {
	nodes := make([]hindex.NodeID, len(m.indices))
	box := m.indices[0].NodeBox(m.indices[0].Root(), m.indices[0].Domain().Clone())
	leaf := true
	for i, idx := range m.indices {
		nodes[i] = idx.Root()
		if i > 0 {
			box = refComposeBox(box, idx.NodeBox(idx.Root(), idx.Domain().Clone()))
		}
		if !idx.IsLeaf(idx.Root()) {
			leaf = false
		}
	}
	return &refState{nodes: nodes, box: box, bound: m.f.LowerBound(box), leaf: leaf}
}

// run is the query-processing loop: Alg. 4 for StrategyBL (each popped state
// fully expands), Alg. 5 for StrategyPE (each popped state yields its next
// best child and re-enters the heap).
func (m *refMerger) run() {
	m.gheap.Push(m.rootState())
	m.ctr.StatesGenerated++
	for m.gheap.Len() > 0 {
		m.ctr.ObserveHeap(m.heapSize())
		s := m.gheap.Pop()
		m.ctr.StatesExamined++
		if m.topk.Full() && m.topk.Worst().Score <= s.bound {
			return
		}
		if s.leaf {
			m.processLeafState(s)
			continue
		}
		if m.opts.Strategy == StrategyBL {
			m.expandFully(s)
			continue
		}
		if s.exp == nil {
			m.initExpansion(s)
		}
		if child := m.getNext(s); child != nil {
			m.gheap.Push(child)
		}
		if next := s.exp.peekBound(); !math.IsInf(next, 1) {
			s.bound = next
			m.gheap.Push(s)
		}
	}
}

// expandFully is Alg. 4's full Cartesian expansion.
func (m *refMerger) expandFully(s *refState) {
	if s.exp == nil {
		m.initExpansion(s)
	}
	if s.exp.dead {
		return
	}
	combo := make([]int, len(s.exp.members))
	var rec func(i int)
	rec = func(i int) {
		if i == len(combo) {
			bound := s.exp.comboBound(m, combo)
			if math.IsInf(bound, 1) {
				return
			}
			if s.exp.combos != nil {
				slots := make([]int, len(combo))
				for j, pos := range combo {
					slots[j] = s.exp.members[j][pos].slot
				}
				if !s.exp.combos.MayContain(slots) {
					m.ctr.Pruned++
					return
				}
			}
			m.gheap.Push(m.buildChild(s, refPending{combo: combo, bound: bound}))
			m.ctr.StatesGenerated++
			return
		}
		for p := range s.exp.members[i] {
			combo[i] = p
			rec(i + 1)
		}
	}
	rec(0)
	m.ctr.ObserveHeap(m.heapSize())
}

// processLeafState retrieves the member leaves of a leaf state and merges
// their tuples through the partial-tuple hashtable. Members already
// retrieved are skipped — redundant states (§5.1.3) thereby cost nothing.
func (m *refMerger) processLeafState(s *refState) {
	for i, idx := range m.indices {
		if m.acc[i].Retrieved(s.nodes[i]) {
			continue
		}
		dims := idx.Dims()
		m.acc[i].Visit(s.nodes[i])
		for _, le := range idx.LeafEntries(s.nodes[i]) {
			pt, ok := m.partial[le.TID]
			if !ok {
				pt = &refPartial{point: m.indices[0].Domain().Center()}
				m.partial[le.TID] = pt
			}
			for _, d := range dims {
				pt.point[d] = le.Point[d]
			}
			pt.got |= 1 << uint(i)
			if pt.got == 1<<uint(len(m.indices))-1 {
				if score := m.f.Eval(pt.point); !math.IsInf(score, 1) {
					m.topk.Offer(core.Result{TID: le.TID, Score: score})
				}
				delete(m.partial, le.TID)
			}
		}
	}
}

// childRef is one expansion candidate of a state member: either a child of
// a non-leaf member node or the member itself when it is already a leaf
// ("If Ii.ni is a leaf node, Ii.ni itself is used in the Cartesian
// products", §5.1.1).
type refChild struct {
	id       hindex.NodeID
	slot     int // 0-based slot in the member node (0 for leaf-self)
	leafSelf bool
	box      ranking.Box // composed with the state box
	bound    float64     // f'(e): lower bound with other members at state box
}

// state is one joint state (n1, …, nm).
type refState struct {
	nodes []hindex.NodeID
	box   ranking.Box
	bound float64
	leaf  bool // all members are leaves
	exp   *refExpansion
}

// expansion holds a state's progressive get_next machinery (§5.2).
type refExpansion struct {
	members  [][]refChild
	lheap    *heap.Heap[refPending]
	strategy refExpandKind
	// threshold positions, one per member (next list index to introduce).
	ts []int
	// pruner combo tester for this state (nil = no pruning).
	combos ComboTester
	// dead marks a state whose signature lookup failed: a bloom false
	// positive being corrected (§5.3.3).
	dead bool
}

type refExpandKind int

const (
	refExpandThreshold refExpandKind = iota
	refExpandNeighborhood
)

// pending is one generated-but-not-returned child combo in a local heap.
type refPending struct {
	combo []int
	bound float64
	empty bool // known-empty (kept for neighborhood traversal only)
}

func refLessPending(a, b refPending) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	// Deterministic tie-break on combo lexicographic order.
	for i := range a.combo {
		if a.combo[i] != b.combo[i] {
			return a.combo[i] < b.combo[i]
		}
	}
	return false
}

// composeBox intersects the state box with a child's box (per dimension).
func refComposeBox(stateBox, childBox ranking.Box) ranking.Box {
	out := stateBox.Clone()
	for d := range out.Lo {
		if childBox.Lo[d] > out.Lo[d] {
			out.Lo[d] = childBox.Lo[d]
		}
		if childBox.Hi[d] < out.Hi[d] {
			out.Hi[d] = childBox.Hi[d]
		}
	}
	return out
}

// init prepares a state for progressive expansion: member child lists with
// f' bounds, the expansion strategy, and the state's signature tester.
func (m *refMerger) initExpansion(s *refState) {
	exp := &refExpansion{lheap: heap.New[refPending](refLessPending)}
	s.exp = exp

	if m.pruner != nil {
		paths := make([][]int, len(m.indices))
		for i, idx := range m.indices {
			paths[i] = idx.Path(s.nodes[i])
		}
		tester, known := m.pruner.Load(paths, m.ctr)
		if !known {
			// The state was reached through a bloom false positive; it is
			// empty (§5.3.3) and produces no children.
			exp.dead = true
			return
		}
		exp.combos = tester
	}

	exp.members = make([][]refChild, len(m.indices))
	for i, idx := range m.indices {
		nid := s.nodes[i]
		if idx.IsLeaf(nid) {
			exp.members[i] = []refChild{{
				id: nid, slot: 0, leafSelf: true, box: s.box,
				bound: s.bound,
			}}
			continue
		}
		m.acc[i].Visit(nid)
		children := idx.Children(nid)
		refs := make([]refChild, len(children))
		for slot, ch := range children {
			box := refComposeBox(s.box, ch.Box)
			refs[slot] = refChild{
				id:    ch.ID,
				slot:  slot,
				box:   box,
				bound: m.f.LowerBound(box),
			}
		}
		exp.members[i] = refs
	}

	if m.useNeighborhood(s) {
		exp.strategy = refExpandNeighborhood
		m.orderForNeighborhood(exp)
		exp.seedNeighborhood(m)
	} else {
		exp.strategy = refExpandThreshold
		m.orderByBound(exp)
		exp.ts = make([]int, len(exp.members))
		for i := range exp.ts {
			exp.ts[i] = 1
		}
		exp.push(m, make([]int, len(exp.members)))
	}
}

// useNeighborhood decides whether neighborhood expansion applies: the
// function must be monotone or semi-monotone and every non-leaf member must
// come from a value-ordered (B+-tree) index (§5.2.2).
func (m *refMerger) useNeighborhood(s *refState) bool {
	_, mono := m.f.(ranking.Monotone)
	_, semi := m.f.(ranking.SemiMonotone)
	if !mono && !semi {
		return false
	}
	for i, idx := range m.indices {
		if idx.IsLeaf(s.nodes[i]) {
			continue
		}
		vo, ok := idx.(hindex.ValueOrdered)
		if !ok || !vo.ValueOrdered() {
			return false
		}
	}
	return true
}

// orderByBound sorts each member's children ascending by f' (threshold
// expansion's sorted lists, §5.2.3).
func (m *refMerger) orderByBound(exp *refExpansion) {
	for i := range exp.members {
		refs := exp.members[i]
		refInsertionSortBy(refs, func(a, b refChild) bool {
			if a.bound != b.bound {
				return a.bound < b.bound
			}
			return a.slot < b.slot
		})
	}
}

// orderForNeighborhood sorts each member's children so that f' is
// non-decreasing along the sequence: ascending or descending attribute order
// for monotone functions, distance-from-extreme order for semi-monotone
// ones. Since f' itself is computed from box lower bounds, sorting by f'
// (ties by value order) realizes both cases.
func (m *refMerger) orderForNeighborhood(exp *refExpansion) {
	m.orderByBound(exp)
}

// seedNeighborhood pushes the initial state (all members at sequence
// position 0).
func (exp *refExpansion) seedNeighborhood(m *refMerger) {
	exp.push(m, make([]int, len(exp.members)))
}

// push creates a pending child combo, consulting the pruner. Empty combos
// are dropped under threshold expansion and kept (marked) under
// neighborhood expansion, where they are still needed to reach their
// neighbors (§5.3.3).
func (exp *refExpansion) push(m *refMerger, combo []int) {
	empty := false
	if exp.combos != nil {
		slots := make([]int, len(combo))
		for i, pos := range combo {
			slots[i] = exp.members[i][pos].slot
		}
		if !exp.combos.MayContain(slots) {
			if exp.strategy == refExpandThreshold {
				m.ctr.Pruned++
				return
			}
			empty = true
			m.ctr.Pruned++
		}
	}
	bound := exp.comboBound(m, combo)
	if math.IsInf(bound, 1) {
		return
	}
	c := append([]int(nil), combo...)
	exp.lheap.Push(refPending{combo: c, bound: bound, empty: empty})
	m.ctr.StatesGenerated++
	m.ctr.ObserveHeap(m.heapSize())
}

// comboBound computes f over the joint box of a child combo.
func (exp *refExpansion) comboBound(m *refMerger, combo []int) float64 {
	box := exp.members[0][combo[0]].box
	if len(combo) > 1 {
		box = box.Clone()
		for i := 1; i < len(combo); i++ {
			box = refComposeBox(box, exp.members[i][combo[i]].box)
		}
	}
	return m.f.LowerBound(box)
}

// getNext produces the state's next best child, or nil when exhausted
// (§5.2.1's S.get_next interface).
func (m *refMerger) getNext(s *refState) *refState {
	exp := s.exp
	if exp.dead {
		return nil
	}
	switch exp.strategy {
	case refExpandNeighborhood:
		return m.nextNeighborhood(s)
	default:
		return m.nextThreshold(s)
	}
}

// nextNeighborhood pops the best pending combo and pushes its staircase
// neighbors: coordinate c may advance only when all later coordinates are
// at their start, which enumerates every combo exactly once without a
// duplicate hash table.
func (m *refMerger) nextNeighborhood(s *refState) *refState {
	exp := s.exp
	for exp.lheap.Len() > 0 {
		p := exp.lheap.Pop()
		for c := 0; c < len(p.combo); c++ {
			if p.combo[c]+1 >= len(exp.members[c]) {
				continue
			}
			ok := true
			for j := c + 1; j < len(p.combo); j++ {
				if p.combo[j] != 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			p.combo[c]++
			exp.push(m, p.combo)
			p.combo[c]--
		}
		if p.empty {
			continue
		}
		return m.buildChild(s, p)
	}
	return nil
}

// nextThreshold runs the sort-merge search of §5.2.3: it returns the local
// heap root once no future combo can beat it, advancing the member with the
// best threshold bound otherwise.
func (m *refMerger) nextThreshold(s *refState) *refState {
	exp := s.exp
	for {
		thr := math.Inf(1)
		best := -1
		for i, t := range exp.ts {
			if t >= len(exp.members[i]) {
				continue
			}
			if b := exp.members[i][t].bound; b < thr {
				thr, best = b, i
			}
		}
		if exp.lheap.Len() > 0 && exp.lheap.Min().bound <= thr {
			p := exp.lheap.Pop()
			return m.buildChild(s, p)
		}
		if best < 0 {
			if exp.lheap.Len() == 0 {
				return nil
			}
			p := exp.lheap.Pop()
			return m.buildChild(s, p)
		}
		// Advance member best: generate the Cartesian band
		// [0..t_j−1] × … × [t_best] × … (§5.2.3).
		m.generateBand(exp, best)
		exp.ts[best]++
	}
}

// generateBand pushes all combos whose coordinate at member s equals
// ts[s] and whose other coordinates are below their thresholds.
func (m *refMerger) generateBand(exp *refExpansion, s int) {
	combo := make([]int, len(exp.members))
	var rec func(i int)
	rec = func(i int) {
		if i == len(exp.members) {
			exp.push(m, combo)
			return
		}
		if i == s {
			combo[i] = exp.ts[s]
			rec(i + 1)
			return
		}
		limit := exp.ts[i]
		if limit > len(exp.members[i]) {
			limit = len(exp.members[i])
		}
		for p := 0; p < limit; p++ {
			combo[i] = p
			rec(i + 1)
		}
	}
	rec(0)
}

// peekBound reports the bound of the state's next child (+Inf when
// exhausted for neighborhood; threshold states may still surface future
// combos bounded by the threshold value).
func (exp *refExpansion) peekBound() float64 {
	bound := math.Inf(1)
	if exp.dead {
		return bound
	}
	if exp.lheap.Len() > 0 {
		bound = exp.lheap.Min().bound
	}
	if exp.strategy == refExpandThreshold {
		for i, t := range exp.ts {
			if t < len(exp.members[i]) {
				if b := exp.members[i][t].bound; b < bound {
					bound = b
				}
			}
		}
	}
	return bound
}

// buildChild materializes a state from a pending combo.
func (m *refMerger) buildChild(parent *refState, p refPending) *refState {
	exp := parent.exp
	nodes := make([]hindex.NodeID, len(p.combo))
	box := exp.members[0][p.combo[0]].box
	if len(p.combo) > 1 {
		box = box.Clone()
	}
	leaf := true
	for i, pos := range p.combo {
		ref := exp.members[i][pos]
		nodes[i] = ref.id
		if i > 0 {
			box = refComposeBox(box, ref.box)
		}
		if !m.indices[i].IsLeaf(ref.id) {
			leaf = false
		}
	}
	return &refState{nodes: nodes, box: box, bound: p.bound, leaf: leaf}
}

// insertionSortBy sorts small slices in place (member lists are at most the
// fanout; avoids sort.Slice's interface allocations on the hot path).
func refInsertionSortBy(refs []refChild, less func(a, b refChild) bool) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && less(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// countingPruner counts the states its pruner does not know: the dead states
// of §5.3.3, reached through a bloom false positive.
type countingPruner struct {
	Pruner
	dead *int
}

func (p countingPruner) Load(paths [][]int, ctr *stats.Counters) (ComboTester, bool) {
	tester, known := p.Pruner.Load(paths, ctr)
	if !known {
		*p.dead++
	}
	return tester, known
}

// TestMergeMatchesReference holds the kernel to the loop it replaced, request
// by request: the same results in the same order, the same block reads per
// structure, and the same states generated, states examined, pruned combos and
// peak heap — the quantities of figs. 5.11/5.12/5.16 — over every strategy,
// index mix, function class, k, node size and rank distribution. The global
// and local heaps see the same pushes and pops in the same order as before, so
// ties between equal bounds fall where they always have; nothing here depends
// on a tie-break the old loop did not have. On top of that, the answer for k
// is a prefix of the answer for k+1.
func TestMergeMatchesReference(t *testing.T) {
	type indexSet struct {
		name string
		// rows is the relation under the small fanouts; the page-derived ones
		// get 4 000 rows, a dozen leaves an index.
		rows  int
		build func(tb *table.Table, dom ranking.Box, small bool) []hindex.Index
		// dims are the ranking dimensions some index covers; subset is a
		// strict subset of them.
		dims, subset []int
	}
	bt := func(small bool, fanout int) btree.Config {
		if small {
			return btree.Config{Fanout: fanout}
		}
		return btree.Config{}
	}
	rt := func(small bool, fanout int) rtree.Config {
		if small {
			return rtree.Config{Fanout: fanout}
		}
		return rtree.Config{}
	}
	// Under small fanouts the members of a set differ in node size, so their
	// heights differ and joint states pair a leaf with an internal node (the
	// leaf-self members of §5.1.1).
	sets := []indexSet{
		{"2xbtree", 400, func(tb *table.Table, dom ranking.Box, small bool) []hindex.Index {
			return []hindex.Index{btree.Build(tb, 0, dom, bt(small, 4)), btree.Build(tb, 1, dom, bt(small, 9))}
		}, []int{0, 1}, []int{1}},
		{"3xbtree", 100, func(tb *table.Table, dom ranking.Box, small bool) []hindex.Index {
			return []hindex.Index{btree.Build(tb, 0, dom, bt(small, 4)), btree.Build(tb, 1, dom, bt(small, 4)), btree.Build(tb, 2, dom, bt(small, 4))}
		}, []int{0, 1, 2}, []int{0, 2}},
		{"rtree+btree", 400, func(tb *table.Table, dom ranking.Box, small bool) []hindex.Index {
			return []hindex.Index{rtree.Bulk(tb, []int{0, 1}, dom, rt(small, 4)), btree.Build(tb, 2, dom, bt(small, 12))}
		}, []int{0, 1, 2}, []int{1, 2}},
		{"2xrtree-overlap", 300, func(tb *table.Table, dom ranking.Box, small bool) []hindex.Index {
			return []hindex.Index{rtree.Bulk(tb, []int{0, 1}, dom, rt(small, 4)), rtree.Bulk(tb, []int{1, 2}, dom, rt(small, 7))}
		}, []int{0, 1, 2}, []int{0}},
	}
	type strategy struct {
		name string
		opts func(idx []hindex.Index, rows int) Options
	}
	joinSig := func(idx []hindex.Index, rows int, cfg JoinSigConfig) *JoinSignature {
		js, err := BuildJoinSignature(idx, rows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	dead := 0
	strategies := []strategy{
		{"BL", func([]hindex.Index, int) Options { return Options{Strategy: StrategyBL} }},
		{"PE", func([]hindex.Index, int) Options { return Options{} }},
		{"PE+SIG-exact", func(idx []hindex.Index, rows int) Options {
			return Options{Pruner: joinSig(idx, rows, JoinSigConfig{})}
		}},
		// Two bytes a state-signature: every state with more than sixteen
		// child combos keeps a bloom filter, far too small to be right.
		{"PE+SIG-bloom", func(idx []hindex.Index, rows int) Options {
			return Options{Pruner: countingPruner{joinSig(idx, rows, JoinSigConfig{PageSize: 2, MaxHash: 2}), &dead}}
		}},
		{"PE+SIG-pairwise", func(idx []hindex.Index, rows int) Options {
			if len(idx) != 3 {
				return Options{Strategy: -1}
			}
			pairs := map[[2]int]*JoinSignature{}
			for _, pr := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
				pairs[pr] = joinSig([]hindex.Index{idx[pr[0]], idx[pr[1]]}, rows, JoinSigConfig{})
			}
			return Options{Pruner: &PairwisePruner{Pairs: pairs}}
		}},
	}

	cases, leafSelf := 0, 0
	for _, dist := range []table.Distribution{table.Uniform, table.AntiCorrelated} {
		for _, set := range sets {
			// The old loop scans its global heap at every push, and a k beyond
			// the relation pops every joint leaf state there is: that case runs
			// on a relation of sixty rows.
			for _, size := range []struct {
				rows  int
				small bool
				ks    []int
			}{{set.rows, true, []int{1, 10, 100}}, {4000, false, []int{1, 10, 100}}, {60, true, []int{61}}, {60, false, []int{61}}} {
				small := size.small
				tb := table.Generate(table.GenSpec{T: size.rows, S: 1, R: 3, Card: 4, Dist: dist, Seed: 19})
				dom := ranking.UnitBox(3)
				idx := set.build(tb, dom, small)
				if small {
					lo, hi := idx[0].Height(), idx[0].Height()
					for _, ix := range idx {
						lo, hi = min(lo, ix.Height()), max(hi, ix.Height())
					}
					if hi < 3 {
						t.Fatalf("%s: height %d under the small fanout, want at least 3", set.name, hi)
					}
					if lo != hi {
						leafSelf++
					}
				}
				weights, target := make([]float64, len(set.dims)), make([]float64, len(set.dims))
				for i := range set.dims {
					weights[i], target[i] = float64(i+1), 0.2+0.3*float64(i)
				}
				funcs := map[string]ranking.Func{
					"linear":  ranking.Linear(set.dims, weights),
					"sqdist":  ranking.SqDist(set.dims, target),
					"general": ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(set.dims[0]), ranking.Sqr(ranking.Var(set.dims[len(set.dims)-1]))))),
					"subset":  ranking.SqDist(set.subset, target[:len(set.subset)]),
					// +Inf bounds: child combos outside the band are never generated.
					"constrained": ranking.Constrained(ranking.Sum(set.dims...), set.dims[0], 0.3, 0.6),
				}
				for _, st := range strategies {
					opts := st.opts(idx, tb.Len())
					if opts.Strategy < 0 {
						continue
					}
					for fname, f := range funcs {
						for _, k := range size.ks {
							name := fmt.Sprintf("%v/%s/small=%v/%s/%s/k=%d", dist, set.name, small, st.name, fname, k)
							wantCtr := stats.New()
							ref, err := refTopK(idx, f, k, opts, wantCtr)
							if err != nil {
								t.Fatalf("%s: reference: %v", name, err)
							}
							gotCtr := stats.New()
							got, err := TopK(idx, f, k, opts, gotCtr)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !slices.Equal(got, ref) {
								t.Fatalf("%s: results differ\n got %v\nwant %v", name, got, ref)
							}
							for _, s := range []stats.Structure{stats.StructBTree, stats.StructRTree, stats.StructJoinSig} {
								if gotCtr.Reads(s) != wantCtr.Reads(s) {
									t.Fatalf("%s: %d %s reads, the reference makes %d", name, gotCtr.Reads(s), s, wantCtr.Reads(s))
								}
							}
							if gotCtr.TotalReads() != wantCtr.TotalReads() ||
								gotCtr.StatesGenerated != wantCtr.StatesGenerated || gotCtr.StatesExamined != wantCtr.StatesExamined ||
								gotCtr.Pruned != wantCtr.Pruned || gotCtr.PeakHeap != wantCtr.PeakHeap {
								t.Fatalf("%s: reads %d generated %d examined %d pruned %d peak heap %d, the reference has %d %d %d %d %d", name,
									gotCtr.TotalReads(), gotCtr.StatesGenerated, gotCtr.StatesExamined, gotCtr.Pruned, gotCtr.PeakHeap,
									wantCtr.TotalReads(), wantCtr.StatesGenerated, wantCtr.StatesExamined, wantCtr.Pruned, wantCtr.PeakHeap)
							}
							next, err := TopK(idx, f, k+1, opts, stats.New())
							if err != nil {
								t.Fatalf("%s: k+1: %v", name, err)
							}
							if len(next) < len(got) || !slices.Equal(next[:len(got)], got) {
								t.Fatalf("%s: top-%d is not a prefix of top-%d\n%v\n%v", name, k, k+1, got, next)
							}
							cases++
						}
					}
				}
			}
		}
	}
	if dead == 0 {
		t.Fatal("no dead state met: the bloom signatures made no false positive")
	}
	if leafSelf == 0 {
		t.Fatal("no index set of unequal heights: leaf-self members were not exercised")
	}
	t.Logf("%d requests compared, %d dead states", cases, dead)
}
