// Package rtree implements an R-tree over one or more ranking dimensions:
// STR bulk loading for cube construction, Guttman quadratic-split insertion
// and deletion for incremental maintenance (thesis §4.2.5), and the hindex
// contract consumed by signatures, index-merge, and skyline processing.
//
// Entry layout follows the thesis' sizing (§4.2.2): 8 bytes of MBR per
// dimension (float32 lo/hi) plus a 4-byte pointer, so 4 KB pages give
// M = 204 at two dimensions and M = 93–94 at five.
package rtree

import (
	"fmt"
	"sort"

	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// rect is a low-width (covered-dimensions-only) bounding box.
type rect struct {
	lo, hi []float64
}

func (r rect) clone() rect {
	lo := append([]float64(nil), r.lo...)
	hi := append([]float64(nil), r.hi...)
	return rect{lo, hi}
}

func (r rect) area() float64 {
	a := 1.0
	for i := range r.lo {
		a *= r.hi[i] - r.lo[i]
	}
	return a
}

// enlarge grows r to include o and returns the area increase.
func (r *rect) enlarge(o rect) float64 {
	before := r.area()
	for i := range r.lo {
		if o.lo[i] < r.lo[i] {
			r.lo[i] = o.lo[i]
		}
		if o.hi[i] > r.hi[i] {
			r.hi[i] = o.hi[i]
		}
	}
	return r.area() - before
}

func union(a, b rect) rect {
	u := a.clone()
	u.enlarge(b)
	return u
}

func pointRect(p []float64) rect {
	return rect{lo: append([]float64(nil), p...), hi: append([]float64(nil), p...)}
}

type node struct {
	leaf        bool
	parent      hindex.NodeID
	posInParent int // 0-based slot in parent
	rects       []rect
	kids        []hindex.NodeID // internal nodes
	tids        []table.TID     // leaves
	page        pager.PageID
}

func (n *node) numEntries() int { return len(n.rects) }

func (n *node) mbr() rect {
	if len(n.rects) == 0 {
		return rect{}
	}
	m := n.rects[0].clone()
	for _, r := range n.rects[1:] {
		m.enlarge(r)
	}
	return m
}

// Tree is an R-tree over a subset of a relation's ranking dimensions.
type Tree struct {
	dims   []int // covered global ranking-dimension positions, ascending
	d      int
	rdims  int
	domain ranking.Box
	center []float64 // domain midpoint: what a point holds in uncovered dimensions

	fanout  int
	minFill int

	nodes  []*node
	root   hindex.NodeID
	height int
	store  *pager.Store
	leafOf map[table.TID]hindex.NodeID
}

// Config controls construction.
type Config struct {
	// PageSize in bytes; defaults to pager.PageSize.
	PageSize int
	// Fanout overrides the page-derived fanout when > 0.
	Fanout int
	// MinFillRatio is m/M in (0, 0.5]; defaults to 0.4.
	MinFillRatio float64
	// FillFactor is the bulk-load occupancy in (0, 1]; defaults to 0.85.
	FillFactor float64
}

func (c Config) pageSize() int {
	if c.PageSize > 0 {
		return c.PageSize
	}
	return pager.PageSize
}

func (c Config) fanoutFor(d int) int {
	if c.Fanout > 0 {
		return c.Fanout
	}
	f := c.pageSize() / (8*d + 4)
	if f < 4 {
		f = 4
	}
	return f
}

// New returns an empty tree over the given global ranking dimensions.
func New(dims []int, rdims int, domain ranking.Box, cfg Config) *Tree {
	d := len(dims)
	if d == 0 {
		//lint:invariant cuboid construction never requests a 0-dimensional tree
		panic("rtree: no dimensions")
	}
	fanout := cfg.fanoutFor(d)
	ratio := cfg.MinFillRatio
	if ratio <= 0 || ratio > 0.5 {
		ratio = 0.4
	}
	minFill := int(float64(fanout) * ratio)
	if minFill < 1 {
		minFill = 1
	}
	return &Tree{
		dims:    append([]int(nil), dims...),
		d:       d,
		rdims:   rdims,
		domain:  domain,
		center:  domain.Center(),
		fanout:  fanout,
		minFill: minFill,
		root:    hindex.InvalidNode,
		store:   pager.NewStore(stats.StructRTree, cfg.pageSize()),
		leafOf:  make(map[table.TID]hindex.NodeID),
	}
}

// Bulk bulk-loads the tree from relation t with Sort-Tile-Recursive packing.
func Bulk(t *table.Table, dims []int, domain ranking.Box, cfg Config) *Tree {
	tr := New(dims, t.Schema().R(), domain, cfg)
	n := t.Len()
	if n == 0 {
		return tr
	}
	fill := cfg.FillFactor
	if fill <= 0 || fill > 1 {
		fill = 0.85
	}
	perNode := int(float64(tr.fanout) * fill)
	if perNode < 2 {
		perNode = 2
	}

	type item struct {
		tid table.TID
		pt  []float64
	}
	items := make([]item, n)
	for i := 0; i < n; i++ {
		pt := make([]float64, tr.d)
		for j, dim := range tr.dims {
			pt[j] = t.Rank(table.TID(i), dim)
		}
		items[i] = item{tid: table.TID(i), pt: pt}
	}

	// Recursive STR: slice along successive dimensions into tiles holding
	// whole numbers of leaves.
	var leaves []*node
	var pack func(its []item, dim int)
	pack = func(its []item, dim int) {
		if dim == tr.d-1 || len(its) <= perNode {
			sort.Slice(its, func(a, b int) bool { return its[a].pt[dim] < its[b].pt[dim] })
			for i := 0; i < len(its); i += perNode {
				j := i + perNode
				if j > len(its) {
					j = len(its)
				}
				nd := &node{leaf: true, parent: hindex.InvalidNode}
				for _, it := range its[i:j] {
					nd.rects = append(nd.rects, pointRect(it.pt))
					nd.tids = append(nd.tids, it.tid)
				}
				tr.addNode(nd)
				leaves = append(leaves, nd)
			}
			return
		}
		sort.Slice(its, func(a, b int) bool { return its[a].pt[dim] < its[b].pt[dim] })
		numLeaves := (len(its) + perNode - 1) / perNode
		slabs := ceilRoot(numLeaves, tr.d-dim)
		slabSize := ((numLeaves+slabs-1)/slabs)*perNode + 0
		if slabSize <= 0 {
			slabSize = perNode
		}
		for i := 0; i < len(its); i += slabSize {
			j := i + slabSize
			if j > len(its) {
				j = len(its)
			}
			pack(its[i:j], dim+1)
		}
	}
	pack(items, 0)
	tr.height = 1

	// Pack upper levels by center-sorted STR over node MBRs.
	level := leaves
	for len(level) > 1 {
		var next []*node
		type nitem struct {
			nd  *node
			ctr []float64
		}
		nits := make([]nitem, len(level))
		for i, nd := range level {
			m := nd.mbr()
			ctr := make([]float64, tr.d)
			for j := range ctr {
				ctr[j] = (m.lo[j] + m.hi[j]) / 2
			}
			nits[i] = nitem{nd, ctr}
		}
		var packN func(its []nitem, dim int)
		packN = func(its []nitem, dim int) {
			if dim == tr.d-1 || len(its) <= perNode {
				sort.Slice(its, func(a, b int) bool { return its[a].ctr[dim] < its[b].ctr[dim] })
				for i := 0; i < len(its); i += perNode {
					j := i + perNode
					if j > len(its) {
						j = len(its)
					}
					nd := &node{parent: hindex.InvalidNode}
					for _, it := range its[i:j] {
						nd.rects = append(nd.rects, it.nd.mbr())
						nd.kids = append(nd.kids, tr.idOf(it.nd))
					}
					tr.addNode(nd)
					next = append(next, nd)
				}
				return
			}
			sort.Slice(its, func(a, b int) bool { return its[a].ctr[dim] < its[b].ctr[dim] })
			numNodes := (len(its) + perNode - 1) / perNode
			slabs := ceilRoot(numNodes, tr.d-dim)
			slabSize := (numNodes + slabs - 1) / slabs * perNode
			if slabSize <= 0 {
				slabSize = perNode
			}
			for i := 0; i < len(its); i += slabSize {
				j := i + slabSize
				if j > len(its) {
					j = len(its)
				}
				packN(its[i:j], dim+1)
			}
		}
		packN(nits, 0)
		level = next
		tr.height++
	}
	tr.root = tr.idOf(level[0])
	tr.wireParents()
	tr.indexLeaves()
	return tr
}

// ceilRoot returns ceil(n^(1/k)).
func ceilRoot(n, k int) int {
	if n <= 1 || k <= 1 {
		return n
	}
	// Integer search; n is at most a few million.
	lo, hi := 1, n
	for lo < hi {
		mid := (lo + hi) / 2
		p := 1
		overflow := false
		for i := 0; i < k; i++ {
			p *= mid
			if p >= n {
				overflow = true
				break
			}
		}
		if overflow || p >= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (tr *Tree) addNode(nd *node) hindex.NodeID {
	nd.page = tr.store.AppendLogical(tr.store.PageSize())
	tr.nodes = append(tr.nodes, nd)
	return hindex.NodeID(len(tr.nodes) - 1)
}

func (tr *Tree) idOf(nd *node) hindex.NodeID {
	return hindex.NodeID(nd.page)
}

// wireParents sets parent/posInParent links below the root.
func (tr *Tree) wireParents() {
	for id, nd := range tr.nodes {
		if nd.leaf {
			continue
		}
		for pos, kid := range nd.kids {
			tr.nodes[kid].parent = hindex.NodeID(id)
			tr.nodes[kid].posInParent = pos
		}
	}
}

func (tr *Tree) indexLeaves() {
	for id, nd := range tr.nodes {
		if !nd.leaf {
			continue
		}
		for _, tid := range nd.tids {
			tr.leafOf[tid] = hindex.NodeID(id)
		}
	}
}

// Dims implements hindex.Index.
func (tr *Tree) Dims() []int { return tr.dims }

// Domain implements hindex.Index.
func (tr *Tree) Domain() ranking.Box { return tr.domain }

// Root implements hindex.Index.
func (tr *Tree) Root() hindex.NodeID { return tr.root }

// Height implements hindex.Index.
func (tr *Tree) Height() int { return tr.height }

// MaxFanout implements hindex.Index.
func (tr *Tree) MaxFanout() int { return tr.fanout }

// IsLeaf implements hindex.Index.
func (tr *Tree) IsLeaf(id hindex.NodeID) bool { return tr.nodes[id].leaf }

// NumChildren implements hindex.Index.
func (tr *Tree) NumChildren(id hindex.NodeID) int { return tr.nodes[id].numEntries() }

// Children implements hindex.Index.
func (tr *Tree) Children(id hindex.NodeID) []hindex.ChildRef {
	nd := tr.nodes[id]
	if nd.leaf {
		//lint:invariant hindex contract: Children is only defined on internal nodes
		panic(fmt.Sprintf("rtree: Children on leaf node %d", id))
	}
	return hindex.ChildrenOf(tr, id)
}

// EntryBox implements hindex.Index.
func (tr *Tree) EntryBox(id hindex.NodeID, slot int, box ranking.Box) hindex.NodeID {
	nd := tr.nodes[id]
	copy(box.Lo, tr.domain.Lo)
	copy(box.Hi, tr.domain.Hi)
	r := nd.rects[slot]
	for j, dim := range tr.dims {
		box.Lo[dim] = r.lo[j]
		box.Hi[dim] = r.hi[j]
	}
	return nd.kids[slot]
}

// EntryPoint implements hindex.Index. Uncovered dimensions hold the domain
// midpoint.
func (tr *Tree) EntryPoint(id hindex.NodeID, slot int, pt []float64) table.TID {
	nd := tr.nodes[id]
	copy(pt, tr.center)
	for j, dim := range tr.dims {
		pt[dim] = nd.rects[slot].lo[j]
	}
	return nd.tids[slot]
}

// ChildAt implements hindex.Index.
func (tr *Tree) ChildAt(id hindex.NodeID, slot int) hindex.NodeID {
	return tr.nodes[id].kids[slot]
}

// LeafEntries implements hindex.Index.
func (tr *Tree) LeafEntries(id hindex.NodeID) []hindex.LeafEntry {
	nd := tr.nodes[id]
	if !nd.leaf {
		//lint:invariant hindex contract: LeafEntries is only defined on leaves
		panic(fmt.Sprintf("rtree: LeafEntries on internal node %d", id))
	}
	return hindex.LeafEntriesOf(tr, id)
}

// NodeBox implements hindex.Index.
func (tr *Tree) NodeBox(id hindex.NodeID) ranking.Box {
	return tr.widen(tr.nodes[id].mbr())
}

// widen lifts a low-width rect to a full-width box (uncovered dimensions
// span the domain).
func (tr *Tree) widen(r rect) ranking.Box {
	box := tr.domain.Clone()
	if r.lo == nil {
		return box
	}
	for j, dim := range tr.dims {
		box.Lo[dim] = r.lo[j]
		box.Hi[dim] = r.hi[j]
	}
	return box
}

// Page implements hindex.Index.
func (tr *Tree) Page(id hindex.NodeID) pager.PageID { return tr.nodes[id].page }

// Store implements hindex.Index.
func (tr *Tree) Store() *pager.Store { return tr.store }

// Path implements hindex.Index by walking parent links (1-based positions).
func (tr *Tree) Path(id hindex.NodeID) []int {
	var rev []int
	for id != tr.root {
		nd := tr.nodes[id]
		rev = append(rev, nd.posInParent+1)
		id = nd.parent
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// LeafOf reports the leaf currently holding tid (InvalidNode if absent).
func (tr *Tree) LeafOf(tid table.TID) hindex.NodeID {
	if id, ok := tr.leafOf[tid]; ok {
		return id
	}
	return hindex.InvalidNode
}

// LeafPath implements hindex.TupleLocator: the path of the leaf node
// holding tid (join-signatures drop the leaf slot, §5.3.2).
func (tr *Tree) LeafPath(tid table.TID) []int {
	leaf := tr.LeafOf(tid)
	if leaf == hindex.InvalidNode {
		return nil
	}
	return tr.Path(leaf)
}

// ValueOrdered implements hindex.ValueOrdered: R-tree entries carry no
// total order.
func (tr *Tree) ValueOrdered() bool { return false }

// TuplePath returns tid's full path including its slot within the leaf
// (thesis §4.2.1: level-d corresponds to a leaf entry).
func (tr *Tree) TuplePath(tid table.TID) []int {
	leaf := tr.LeafOf(tid)
	if leaf == hindex.InvalidNode {
		return nil
	}
	nd := tr.nodes[leaf]
	for slot, t := range nd.tids {
		if t == tid {
			return append(tr.Path(leaf), slot+1)
		}
	}
	return nil
}

// TIDAt resolves a full tuple path (node positions plus leaf slot, as
// produced by TuplePath) back to the tuple it addresses.
func (tr *Tree) TIDAt(path []int) (table.TID, bool) {
	if tr.root == hindex.InvalidNode || len(path) == 0 {
		return 0, false
	}
	id := tr.root
	for _, p := range path[:len(path)-1] {
		nd := tr.nodes[id]
		if nd.leaf || p < 1 || p > len(nd.kids) {
			return 0, false
		}
		id = nd.kids[p-1]
	}
	nd := tr.nodes[id]
	slot := path[len(path)-1] - 1
	if !nd.leaf || slot < 0 || slot >= len(nd.tids) {
		return 0, false
	}
	return nd.tids[slot], true
}

// NumNodes reports the total node count.
func (tr *Tree) NumNodes() int { return len(tr.nodes) }

// NumLeaves reports the leaf count.
func (tr *Tree) NumLeaves() int {
	c := 0
	for _, nd := range tr.nodes {
		if nd.leaf {
			c++
		}
	}
	return c
}

var _ hindex.Index = (*Tree)(nil)
