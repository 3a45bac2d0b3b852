// Package signature implements the signature measure of thesis chapter 4:
// for each data-cube cell, a tree of bit arrays mirroring a hierarchical
// data partition (R-tree), where a bit is 1 iff the corresponding subtree
// (or leaf tuple) contains a tuple of the cell. Signatures are generated by
// recursive sorting of tuple paths, compressed node-by-node with the
// adaptive codecs of internal/bitvec, decomposed into page-sized partial
// signatures keyed by SID, assembled online with union/intersection, and
// incrementally maintained under partition changes.
package signature

import (
	"sort"

	"rankcube/internal/bitvec"
	"rankcube/internal/hindex"
)

// Node is one decoded signature node: a bit array over the child slots of
// the corresponding index node. Kids is slot-aligned for internal levels
// (nil entries under 0 bits) and nil at the leaf level, where bits mark
// tuple slots.
//
// A node that Encoder.Decode read off a page also remembers where its
// encoding sits there, so that the encoder of the same store can copy it in
// place of coding the bits again. Only Decode records that, and whatever
// changes the node's bits or width (Set, Clear and its cascade, grow) drops
// it; a node built from new bits — Generate, Clone — has none. A leaf-level
// node Decode was not asked for has that place and no Bits.
type Node struct {
	Bits *bitvec.Bits
	Kids []*Node
	// page, off and size locate the stored encoding: size bits from bit off of
	// page, a payload the governed read that decoded it returned. page is nil
	// when the node has none.
	page      []byte
	off, size int
	// coded is the encoding in progress that has written this node.
	coded *Stored
}

// leafDepth reports the tree depth (path length) of leaf-level signature
// nodes for an index of the given height: the root is depth 0, leaf index
// nodes are depth height−1.
func leafDepth(height int) int { return height - 1 }

// Generate builds the signature of one cell over idx from the cell's tuple
// paths (each path as produced by rtree.TuplePath: node positions plus the
// leaf slot, 1-based). It implements the tuple-oriented recursive-sorting
// construction of §4.2.1. Paths may arrive in any order; Generate sorts.
// It returns nil for an empty path set.
func Generate(idx hindex.Index, paths [][]int) *Node {
	if len(paths) == 0 {
		return nil
	}
	sorted := make([][]int, len(paths))
	copy(sorted, paths)
	sort.Slice(sorted, func(a, b int) bool { return lexLess(sorted[a], sorted[b]) })
	return generate(idx, idx.Root(), sorted, 0, idx.Height())
}

func lexLess(a, b []int) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// generate recursively builds the node for index node nid at the given
// depth from path suffixes sorted lexicographically; depth indexes into the
// paths.
func generate(idx hindex.Index, nid hindex.NodeID, paths [][]int, depth, height int) *Node {
	width := idx.NumChildren(nid)
	n := &Node{Bits: bitvec.NewBits(width)}
	leaf := depth == leafDepth(height)
	if !leaf {
		n.Kids = make([]*Node, width)
	}
	for i := 0; i < len(paths); {
		p := paths[i][depth] // 1-based position
		j := i
		for j < len(paths) && paths[j][depth] == p {
			j++
		}
		n.Bits.Set(p-1, true)
		if !leaf {
			n.Kids[p-1] = generate(idx, idx.ChildAt(nid, p-1), paths[i:j], depth+1, height)
		}
		i = j
	}
	return n
}

// Test reports the bit for the node or tuple at path: the bit lives at
// position path[last]−1 of the parent's signature node. The empty path
// (root) tests overall non-emptiness.
func (n *Node) Test(path []int) bool {
	if n == nil {
		return false
	}
	if len(path) == 0 {
		return n.Bits.Any()
	}
	cur := n
	for _, p := range path[:len(path)-1] {
		pos := p - 1
		if pos >= cur.Bits.Len() || !cur.Bits.Get(pos) || cur.Kids == nil {
			return false
		}
		cur = cur.Kids[pos]
		if cur == nil {
			return false
		}
	}
	pos := path[len(path)-1] - 1
	return pos < cur.Bits.Len() && cur.Bits.Get(pos)
}

// Probe implements Prober: the children of the node at parent that hold a
// tuple of the cell are the set bits of its signature node.
func (n *Node) Probe(parent []int, live *bitvec.Bits) {
	cur := n
	for _, p := range parent {
		if cur == nil || p > cur.Bits.Len() || !cur.Bits.Get(p-1) || cur.Kids == nil {
			cur = nil
			break
		}
		cur = cur.Kids[p-1]
	}
	if cur == nil {
		live.And(noBits)
		return
	}
	live.And(cur.Bits)
}

// noBits masks every slot out.
var noBits = bitvec.NewBits(0)

// Set marks the tuple at path present, growing nodes as needed; width gives
// the current index-node width at each prefix depth (so freshly split nodes
// get correctly sized bit arrays). Set implements the "set bits to 1
// according to new paths" step of Algorithm 2.
func (n *Node) Set(path []int, width func(prefix []int) int, height int) {
	cur := n
	for d := 0; d < len(path); d++ {
		pos := path[d] - 1
		cur.grow(pos + 1)
		cur.flip(pos, true)
		if d == len(path)-1 {
			return
		}
		if cur.Kids == nil {
			cur.Kids = make([]*Node, cur.Bits.Len())
		}
		if cur.Kids[pos] == nil {
			w := width(path[:d+1])
			kid := &Node{Bits: bitvec.NewBits(w)}
			if d+1 < leafDepth(height) {
				kid.Kids = make([]*Node, w)
			}
			cur.Kids[pos] = kid
		}
		cur = cur.Kids[pos]
	}
}

// Clear removes the tuple at path, cascading: when a node's bits become all
// zero, the entry pointing at it from its parent is cleared too (Algorithm 2
// line 6). It reports whether the root itself became empty.
func (n *Node) Clear(path []int) bool {
	n.clear(path)
	return !n.Bits.Any()
}

// clear reports whether the node became all-zero.
func (n *Node) clear(path []int) bool {
	pos := path[0] - 1
	if pos >= n.Bits.Len() {
		return !n.Bits.Any()
	}
	if len(path) == 1 {
		n.flip(pos, false)
	} else if n.Kids != nil && n.Kids[pos] != nil {
		if n.Kids[pos].clear(path[1:]) {
			n.Kids[pos] = nil
			n.flip(pos, false)
		}
	}
	return !n.Bits.Any()
}

// flip sets bit pos to v; a node it changes no longer matches its stored
// encoding.
func (n *Node) flip(pos int, v bool) {
	if n.Bits.Get(pos) != v {
		n.Bits.Set(pos, v)
		n.page = nil
	}
}

// grow widens the node to at least w slots (index nodes gain entries as
// tuples are inserted); the width is part of the encoding.
func (n *Node) grow(w int) {
	if n.Bits.Len() >= w {
		return
	}
	n.Bits.Grow(w)
	n.page = nil
	if n.Kids != nil {
		for len(n.Kids) < w {
			n.Kids = append(n.Kids, nil)
		}
	}
}

// Clone returns a deep copy of the signature with no stored encoding: the
// encoder codes every node of it afresh.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{Bits: n.Bits.Clone()}
	if n.Kids != nil {
		out.Kids = make([]*Node, len(n.Kids))
		for i, k := range n.Kids {
			out.Kids[i] = k.Clone()
		}
	}
	return out
}

// Tuples enumerates the tuple paths marked in the signature, in BFS-free
// (depth-first, slot-ascending) order — used by tests to verify lossless
// roundtrips.
func (n *Node) Tuples(height int) [][]int {
	var out [][]int
	var rec func(cur *Node, prefix []int, depth int)
	rec = func(cur *Node, prefix []int, depth int) {
		for i := 0; i < cur.Bits.Len(); i++ {
			if !cur.Bits.Get(i) {
				continue
			}
			path := append(append([]int(nil), prefix...), i+1)
			if depth == leafDepth(height) {
				out = append(out, path)
				continue
			}
			if cur.Kids != nil && cur.Kids[i] != nil {
				rec(cur.Kids[i], path, depth+1)
			}
		}
	}
	if n != nil {
		rec(n, nil, 0)
	}
	return out
}
