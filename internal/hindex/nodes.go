package hindex

import (
	"fmt"
	"slices"

	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/table"
)

// Nodes is the node store under every partition tree: the R-tree, the
// merged-grid hierarchy and the B+-tree each embed one, build it through the
// write side below, and get the read side of Index, TupleLocator and
// PartitionTree from it. A node is its entries in slot order — child ids or
// tuple ids — and one flat run of their coordinates over the covered
// dimensions only: lo then hi per entry of an internal node, the point per
// entry of a leaf. A node's id is the page the store's pager gave it.
type Nodes struct {
	dims   []int       // covered ranking-dimension positions, ascending
	domain ranking.Box // full-width
	center []float64   // domain midpoint: what a point holds in uncovered dimensions
	fanout int
	root   NodeID
	height int
	store  *pager.Store
	nodes  []node
	// leafOf maps a TID to the leaf holding it, InvalidNode for none.
	leafOf []NodeID
}

type node struct {
	leaf   bool
	parent NodeID
	pos    int32 // 0-based slot in parent
	page   pager.PageID
	kids   []NodeID    // internal nodes
	tids   []table.TID // leaves
	coords []float64
}

// NewNodes returns an empty store over the given ranking dimensions, its
// pages accounted in store; tuples sizes the tuple-to-leaf table.
func NewNodes(dims []int, domain ranking.Box, fanout int, store *pager.Store, tuples int) Nodes {
	return Nodes{
		dims:   append([]int(nil), dims...),
		domain: domain,
		center: domain.Center(),
		fanout: fanout,
		root:   InvalidNode,
		store:  store,
		leafOf: make([]NodeID, 0, tuples),
	}
}

// RectFanout is how many entries over d dimensions fit a page by the thesis'
// sizing (§4.2.2) — 8 bytes of MBR per dimension (float32 lo/hi) plus a
// 4-byte pointer — and at least 4.
func RectFanout(pageSize, d int) int { return max(4, pageSize/(8*d+4)) }

// --- read side: Index, TupleLocator, PartitionTree ------------------------

// Dims implements Index.
func (s *Nodes) Dims() []int { return s.dims }

// Domain implements Index.
func (s *Nodes) Domain() ranking.Box { return s.domain }

// Root implements Index.
func (s *Nodes) Root() NodeID { return s.root }

// Height implements Index.
func (s *Nodes) Height() int { return s.height }

// MaxFanout implements Index.
func (s *Nodes) MaxFanout() int { return s.fanout }

// NumNodes reports how many nodes were ever added, which bounds the node
// ids; maintenance leaves the ones it emptied in place, detached.
func (s *Nodes) NumNodes() int { return len(s.nodes) }

// IsLeaf implements Index.
func (s *Nodes) IsLeaf(id NodeID) bool { return s.nodes[id].leaf }

// NumChildren implements Index.
func (s *Nodes) NumChildren(id NodeID) int {
	nd := &s.nodes[id]
	return len(nd.kids) + len(nd.tids)
}

// ChildAt implements Index.
func (s *Nodes) ChildAt(id NodeID, slot int) NodeID { return s.nodes[id].kids[slot] }

// TupleAt implements Index.
func (s *Nodes) TupleAt(id NodeID, slot int) table.TID { return s.nodes[id].tids[slot] }

// Page implements Index.
func (s *Nodes) Page(id NodeID) pager.PageID { return s.nodes[id].page }

// Store implements Index.
func (s *Nodes) Store() *pager.Store { return s.store }

// EntryBox implements Index.
func (s *Nodes) EntryBox(id NodeID, slot int, box ranking.Box) NodeID {
	copy(box.Lo, s.domain.Lo)
	copy(box.Hi, s.domain.Hi)
	nd, d := &s.nodes[id], len(s.dims)
	c := nd.coords[slot*2*d:][:2*d]
	for j, dim := range s.dims {
		box.Lo[dim] = c[j]
		box.Hi[dim] = c[d+j]
	}
	return nd.kids[slot]
}

// EntryPoint implements Index. Uncovered dimensions hold the domain midpoint.
func (s *Nodes) EntryPoint(id NodeID, slot int, pt []float64) table.TID {
	copy(pt, s.center)
	nd, d := &s.nodes[id], len(s.dims)
	c := nd.coords[slot*d:][:d]
	for j, dim := range s.dims {
		pt[dim] = c[j]
	}
	return nd.tids[slot]
}

// Children implements Index by materializing the entries of internal node id
// through EntryBox. All boxes share one backing array, so a caller holding
// one box past the call pins the others. No search loop calls it — they read
// a slot at a time — only the reference oracles and benchmark/layertrace,
// whose timing wrappers count it.
func (s *Nodes) Children(id NodeID) []ChildRef {
	if s.nodes[id].leaf {
		//lint:invariant hindex contract: Children is only defined on internal nodes
		panic(fmt.Sprintf("hindex: Children on leaf node %d", id))
	}
	n, w := s.NumChildren(id), s.domain.Dims()
	out := make([]ChildRef, n)
	backing := make([]float64, 2*w*n)
	for i := range out {
		lo, hi := backing[:w:w], backing[w:2*w:2*w]
		backing = backing[2*w:]
		out[i].Box = ranking.NewBox(lo, hi)
		out[i].ID = s.EntryBox(id, i, out[i].Box)
	}
	return out
}

// LeafEntries is Children for the tuples of leaf node id, through EntryPoint,
// with the same callers.
func (s *Nodes) LeafEntries(id NodeID) []LeafEntry {
	if !s.nodes[id].leaf {
		//lint:invariant hindex contract: LeafEntries is only defined on leaves
		panic(fmt.Sprintf("hindex: LeafEntries on internal node %d", id))
	}
	n, w := s.NumChildren(id), s.domain.Dims()
	out := make([]LeafEntry, n)
	backing := make([]float64, w*n)
	for i := range out {
		out[i].Point = backing[i*w : (i+1)*w : (i+1)*w]
		out[i].TID = s.EntryPoint(id, i, out[i].Point)
	}
	return out
}

// NodeBox implements Index: the union of node id's entries, the domain in
// uncovered dimensions and for a node without entries.
func (s *Nodes) NodeBox(id NodeID, box ranking.Box) ranking.Box {
	copy(box.Lo, s.domain.Lo)
	copy(box.Hi, s.domain.Hi)
	for slot, n := 0, s.NumChildren(id); slot < n; slot++ {
		lo, hi := s.Rect(id, slot)
		for j, dim := range s.dims {
			if slot == 0 || lo[j] < box.Lo[dim] {
				box.Lo[dim] = lo[j]
			}
			if slot == 0 || hi[j] > box.Hi[dim] {
				box.Hi[dim] = hi[j]
			}
		}
	}
	return box
}

// AppendPath implements Index by walking parent links (1-based positions).
func (s *Nodes) AppendPath(dst []int, id NodeID) []int {
	depth := 0
	for at := id; at != s.root; at = s.nodes[at].parent {
		depth++
	}
	dst = slices.Grow(dst, depth)[:len(dst)+depth]
	for at, i := id, len(dst); at != s.root; at = s.nodes[at].parent {
		i--
		dst[i] = int(s.nodes[at].pos) + 1
	}
	return dst
}

// Path implements Index.
func (s *Nodes) Path(id NodeID) []int { return s.AppendPath(nil, id) }

// leaf reports the leaf holding tid, InvalidNode for a TID the tree does not
// hold — one out of the table's range included.
func (s *Nodes) leaf(tid table.TID) NodeID {
	if tid < 0 || int(tid) >= len(s.leafOf) {
		return InvalidNode
	}
	return s.leafOf[tid]
}

// Locate reports the leaf holding tid and its slot there.
func (s *Nodes) Locate(tid table.TID) (leaf NodeID, slot int, ok bool) {
	leaf = s.leaf(tid)
	if leaf == InvalidNode {
		return InvalidNode, 0, false
	}
	for slot, t := range s.nodes[leaf].tids {
		if t == tid {
			return leaf, slot, true
		}
	}
	//lint:invariant leafOf and leaf contents are updated together; a miss is tree corruption
	panic(fmt.Sprintf("hindex: leafOf inconsistent for tid %d", tid))
}

// LeafPath implements TupleLocator: the path of the leaf node holding tid
// (join-signatures drop the leaf slot, §5.3.2), nil if the tree does not
// hold it.
func (s *Nodes) LeafPath(tid table.TID) []int {
	leaf := s.leaf(tid)
	if leaf == InvalidNode {
		return nil
	}
	return s.Path(leaf)
}

// TuplePath implements PartitionTree: tid's leaf path plus its slot within
// the leaf (thesis §4.2.1: level-d corresponds to a leaf entry).
func (s *Nodes) TuplePath(tid table.TID) []int {
	leaf, slot, ok := s.Locate(tid)
	if !ok {
		return nil
	}
	return append(s.AppendPath(make([]int, 0, s.height), leaf), slot+1)
}

// NodeAt implements PartitionTree: the node a path leads to from the root.
// It reports false for a position no entry holds and for a path that goes on
// below a leaf.
func (s *Nodes) NodeAt(path []int) (NodeID, bool) {
	id := s.root
	if id == InvalidNode {
		return InvalidNode, false
	}
	for _, p := range path {
		nd := &s.nodes[id]
		if p < 1 || p > len(nd.kids) {
			return InvalidNode, false
		}
		id = nd.kids[p-1]
	}
	return id, true
}

// --- write side: what the builders and the R-tree's maintenance use -------

// AddNode adds an empty node on a new page accounted at pageBytes and returns
// its id; entries, when known, sizes it. It has no parent until AppendChild
// or SetRoot gives it one.
func (s *Nodes) AddNode(leaf bool, pageBytes, entries int) NodeID {
	nd := node{leaf: leaf, parent: InvalidNode, page: s.store.AppendLogical(pageBytes)}
	if leaf {
		nd.tids = make([]table.TID, 0, entries)
	} else {
		nd.kids = make([]NodeID, 0, entries)
	}
	nd.coords = make([]float64, 0, entries*s.width(&nd))
	s.nodes = append(s.nodes, nd)
	return NodeID(len(s.nodes) - 1)
}

// width is how many coordinates one entry of nd holds.
func (s *Nodes) width(nd *node) int {
	if nd.leaf {
		return len(s.dims)
	}
	return 2 * len(s.dims)
}

// SetRoot makes id the root of a tree of the given height; InvalidNode and 0
// empty the tree.
func (s *Nodes) SetRoot(id NodeID, height int) {
	s.root, s.height = id, height
	if id != InvalidNode {
		s.nodes[id].parent, s.nodes[id].pos = InvalidNode, 0
	}
}

// SetMaxFanout replaces the fanout the store was made with (the grid
// partition reports its widest node).
func (s *Nodes) SetMaxFanout(m int) { s.fanout = m }

// AppendChild appends kid, bounded by lo..hi over the covered dimensions, to
// internal node id and makes id its parent.
func (s *Nodes) AppendChild(id, kid NodeID, lo, hi []float64) {
	nd := &s.nodes[id]
	s.nodes[kid].parent, s.nodes[kid].pos = id, int32(len(nd.kids))
	nd.kids = append(nd.kids, kid)
	nd.coords = append(append(nd.coords, lo...), hi...)
}

// AppendTuple appends tid, at pt over the covered dimensions, to leaf id.
func (s *Nodes) AppendTuple(id NodeID, tid table.TID, pt []float64) {
	nd := &s.nodes[id]
	nd.tids = append(nd.tids, tid)
	nd.coords = append(nd.coords, pt...)
	for int(tid) >= len(s.leafOf) {
		s.leafOf = append(s.leafOf, InvalidNode)
	}
	s.leafOf[tid] = id
}

// Rect implements Index. The views stay valid, and writable, until the
// node's entries are next appended to, removed or dealt.
func (s *Nodes) Rect(id NodeID, slot int) (lo, hi []float64) {
	nd, d := &s.nodes[id], len(s.dims)
	if nd.leaf {
		pt := nd.coords[slot*d:][:d:d]
		return pt, pt
	}
	c := nd.coords[slot*2*d:][: 2*d : 2*d]
	return c[:d:d], c[d:]
}

// Parent reports node id's parent and its slot there; the root's parent is
// InvalidNode.
func (s *Nodes) Parent(id NodeID) (NodeID, int) {
	return s.nodes[id].parent, int(s.nodes[id].pos)
}

// MBR writes the union of node id's entries over the covered dimensions into
// lo..hi; it reports false, and writes nothing, for a node without entries.
func (s *Nodes) MBR(id NodeID, lo, hi []float64) bool {
	n := s.NumChildren(id)
	for slot := 0; slot < n; slot++ {
		elo, ehi := s.Rect(id, slot)
		if slot == 0 {
			copy(lo, elo)
			copy(hi, ehi)
			continue
		}
		for j := range lo {
			if elo[j] < lo[j] {
				lo[j] = elo[j]
			}
			if ehi[j] > hi[j] {
				hi[j] = ehi[j]
			}
		}
	}
	return n > 0
}

// RemoveEntry swap-removes one entry of node id: the last entry takes its
// slot. A removed tuple is no longer located.
func (s *Nodes) RemoveEntry(id NodeID, slot int) {
	nd := &s.nodes[id]
	last, w := s.NumChildren(id)-1, s.width(nd)
	copy(nd.coords[slot*w:][:w], nd.coords[last*w:])
	nd.coords = nd.coords[:last*w]
	if nd.leaf {
		s.leafOf[nd.tids[slot]] = InvalidNode
		nd.tids[slot] = nd.tids[last]
		nd.tids = nd.tids[:last]
		return
	}
	nd.kids[slot] = nd.kids[last]
	nd.kids = nd.kids[:last]
	if slot != last {
		s.nodes[nd.kids[slot]].pos = int32(slot)
	}
}

// Deal splits node id: the entries in slots keep stay, in that order, and
// those in slots move go, in that order, to the empty node sib of the same
// kind. Moved children and tuples follow their entries.
func (s *Nodes) Deal(id NodeID, keep []int, sib NodeID, move []int) {
	old := s.nodes[id]
	w := s.width(&old)
	nd := &s.nodes[id]
	nd.kids = make([]NodeID, 0, cap(old.kids))
	nd.tids = make([]table.TID, 0, cap(old.tids))
	nd.coords = make([]float64, 0, cap(old.coords))
	deal := func(to NodeID, slots []int) {
		for _, slot := range slots {
			c := old.coords[slot*w:][:w]
			if old.leaf {
				s.AppendTuple(to, old.tids[slot], c)
			} else {
				s.AppendChild(to, old.kids[slot], c[:w/2], c[w/2:])
			}
		}
	}
	deal(id, keep)
	deal(sib, move)
}
