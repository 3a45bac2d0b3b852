package indexmerge

import (
	"fmt"
	"strings"

	"rankcube/internal/bitvec"
	"rankcube/internal/bloom"
	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ComboTester answers whether a child-slot combination of the state being
// expanded may contain tuples. Combos use 0-based slots; leaf-self members
// pass slot 0.
type ComboTester interface {
	MayContain(slots []int) bool
}

// Pruner supplies empty-state pruning for a merge run (§5.3.3). Load is
// called once per expanded state with the member node paths; it returns the
// state's combo tester and whether the state is known to the signature at
// all (false ⇒ the state is empty: a bloom false positive being corrected).
type Pruner interface {
	Load(paths [][]int, ctr *stats.Counters) (ComboTester, bool)
}

// stateSig is one state-signature: a bit array over child combos when the
// combo space fits a page, a bloom filter otherwise (§5.3.1).
type stateSig struct {
	widths []int
	bitmap *bitvec.Bits
	filter *bloom.Filter
	page   pager.PageID
	n      int // occupied combos
}

// MayContain implements ComboTester.
func (ss *stateSig) MayContain(slots []int) bool {
	key := uint64(0)
	for i, s := range slots {
		if s < 0 || s >= ss.widths[i] {
			return false
		}
		key = key*uint64(ss.widths[i]) + uint64(s)
	}
	if ss.bitmap != nil {
		return ss.bitmap.Get(int(key))
	}
	return ss.filter.MayContain(key)
}

// JoinSignature is the materialized join-signature of an ordered set of
// indices: state-signatures for every non-leaf, non-empty joint state,
// keyed by the member node paths (§5.3.1-5.3.2).
type JoinSignature struct {
	indices []hindex.Index
	states  map[string]*stateSig
	store   *pager.Store
	// maxK bounds the bloom hash count (the thesis' k̄).
	maxK int
}

// JoinSigConfig controls join-signature construction.
type JoinSigConfig struct {
	// PageSize bounds each state-signature (bits ≤ 8×PageSize); defaults to
	// pager.PageSize.
	PageSize int
	// MaxHash is the maximum bloom hash count k̄; defaults to 8.
	MaxHash int
}

// BuildJoinSignature computes the join-signature of the given indices over
// all tuples [0, numTuples). Every index must implement
// hindex.TupleLocator. Construction is tuple-oriented recursive bucketing,
// the analogue of sorting-based cubing (§5.3.2).
func BuildJoinSignature(indices []hindex.Index, numTuples int, cfg JoinSigConfig) (*JoinSignature, error) {
	pageSize := cfg.PageSize
	if pageSize <= 0 {
		pageSize = pager.PageSize
	}
	maxK := cfg.MaxHash
	if maxK <= 0 {
		maxK = 8
	}
	js := &JoinSignature{
		indices: indices,
		states:  make(map[string]*stateSig),
		store:   pager.NewStore(stats.StructJoinSig, pageSize),
		maxK:    maxK,
	}
	locators := make([]hindex.TupleLocator, len(indices))
	for i, idx := range indices {
		loc, ok := idx.(hindex.TupleLocator)
		if !ok {
			return nil, fmt.Errorf("indexmerge: index %d cannot locate tuples: %w", i, errs.ErrInvalidArgument)
		}
		locators[i] = loc
	}

	// Per-tuple leaf-node paths on every index.
	paths := make([][][]int, len(indices))
	for i := range indices {
		paths[i] = make([][]int, numTuples)
		for t := 0; t < numTuples; t++ {
			paths[i][t] = locators[i].LeafPath(table.TID(t))
		}
	}

	tids := make([]int, numTuples)
	for t := range tids {
		tids[t] = t
	}
	nodes := make([]hindex.NodeID, len(indices))
	for i, idx := range indices {
		nodes[i] = idx.Root()
	}
	js.build(nodes, paths, tids, make([]int, len(indices)), pageSize*8)
	return js, nil
}

// build registers the state-signature for the state identified by nodes
// (member depths in depth[i]) and recurses into occupied child combos.
func (js *JoinSignature) build(nodes []hindex.NodeID, paths [][][]int, tids []int, depth []int, pageBits int) {
	if len(tids) == 0 {
		return
	}
	// A state whose members are all leaves is a leaf state: no signature.
	allLeaf := true
	widths := make([]int, len(js.indices))
	for i, idx := range js.indices {
		if idx.IsLeaf(nodes[i]) {
			widths[i] = 1
		} else {
			widths[i] = idx.NumChildren(nodes[i])
			allLeaf = false
		}
	}
	if allLeaf {
		return
	}

	// Bucket tuples by child combo.
	combos := make(map[uint64][]int)
	for _, t := range tids {
		key := uint64(0)
		ok := true
		for i := range js.indices {
			slot := 0
			if widths[i] > 1 {
				p := paths[i][t]
				if depth[i] >= len(p) {
					ok = false
					break
				}
				slot = p[depth[i]] - 1
			}
			key = key*uint64(widths[i]) + uint64(slot)
		}
		if ok {
			combos[key] = append(combos[key], t)
		}
	}

	// Materialize the state-signature.
	card := 1
	overflow := false
	for _, w := range widths {
		card *= w
		if card > pageBits {
			overflow = true
			break
		}
	}
	ss := &stateSig{widths: widths, n: len(combos)}
	if !overflow {
		ss.bitmap = bitvec.NewBits(card)
		for key := range combos {
			ss.bitmap.Set(int(key), true)
		}
		ss.page = js.store.AppendLogical((card + 7) / 8)
	} else {
		ss.filter = bloom.NewOptimal(len(combos), pageBits, js.maxK)
		for key := range combos {
			ss.filter.Add(key)
		}
		ss.page = js.store.AppendLogical((ss.filter.Bits() + 7) / 8)
	}
	nodePaths := make([][]int, len(nodes))
	for i, idx := range js.indices {
		nodePaths[i] = idx.Path(nodes[i])
	}
	js.states[pathsKey(nodePaths)] = ss

	// Recurse into each occupied combo.
	for key, bucket := range combos {
		childNodes := make([]hindex.NodeID, len(nodes))
		childDepth := make([]int, len(depth))
		rem := key
		// Decode the mixed-radix key back into slots (reverse order).
		slots := make([]int, len(widths))
		for i := len(widths) - 1; i >= 0; i-- {
			slots[i] = int(rem % uint64(widths[i]))
			rem /= uint64(widths[i])
		}
		for i, idx := range js.indices {
			if widths[i] == 1 && idx.IsLeaf(nodes[i]) {
				childNodes[i] = nodes[i]
				childDepth[i] = depth[i]
			} else {
				childNodes[i] = idx.ChildAt(nodes[i], slots[i])
				childDepth[i] = depth[i] + 1
			}
		}
		js.build(childNodes, paths, bucket, childDepth, pageBits)
	}
}

// pathsKey derives the lookup key of a state from its member node paths.
func pathsKey(paths [][]int) string {
	var b strings.Builder
	for i, p := range paths {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(core.IntsKey(p))
	}
	return b.String()
}

// Load implements Pruner for the full m-way signature.
func (js *JoinSignature) Load(paths [][]int, ctr *stats.Counters) (ComboTester, bool) {
	ss, ok := js.states[pathsKey(paths)]
	if !ok {
		return nil, false
	}
	js.store.Touch(ss.page, ctr)
	return ss, true
}

// SizeBytes reports the total signature footprint.
func (js *JoinSignature) SizeBytes() int64 { return js.store.Bytes() }

// PairwisePruner prunes an m-way merge with 2-way join-signatures
// (§5.3.3): a child combo is empty if any pair's signature rejects it.
type PairwisePruner struct {
	// Pairs maps member-index pairs (i, j) of the merge to their 2-way
	// signature, which must have been built over (indices[i], indices[j])
	// in that order.
	Pairs map[[2]int]*JoinSignature
}

// pairTester tests each pair's signature; with none, it passes every combo.
type pairTester struct {
	members []pairMember
}

type pairMember struct {
	i, j int
	ss   *stateSig
}

// Load implements Pruner.
func (pp *PairwisePruner) Load(paths [][]int, ctr *stats.Counters) (ComboTester, bool) {
	var t pairTester
	for pair, js := range pp.Pairs {
		ss, ok := js.states[pathsKey([][]int{paths[pair[0]], paths[pair[1]]})]
		if !ok {
			// The pair state is absent: with exact bitmaps the 2-way state
			// is genuinely empty, so the m-way state is too.
			return nil, false
		}
		js.store.Touch(ss.page, ctr)
		t.members = append(t.members, pairMember{i: pair[0], j: pair[1], ss: ss})
	}
	return t, true
}

// MayContain implements ComboTester.
func (t pairTester) MayContain(slots []int) bool {
	for _, m := range t.members {
		if !m.ss.MayContain([]int{slots[m.i], slots[m.j]}) {
			return false
		}
	}
	return true
}
