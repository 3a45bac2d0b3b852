// Package gridtree implements the grid-based hierarchical partition of
// thesis §4.2.1 (fig. 4.2): ranking dimensions are cut into equi-depth bins
// forming base grid cells, and hierarchy is created by "iteratively merging
// neighboring grid cells" — every ⌊M^(1/n)⌋ consecutive bins per dimension
// collapse into one parent cell, recursively, until a single root remains.
// Empty cells are removed from the tree.
//
// The tree implements hindex.PartitionTree, so the signature ranking cube
// accepts it interchangeably with the R-tree — the two implementations the
// thesis casts into its unified framework (§4.1.2). Grid partitions are not
// incrementally maintainable; they re-partition periodically instead
// (§1.3.1).
package gridtree

import (
	"fmt"
	"math"
	"sort"

	"rankcube/internal/gridcube"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Config controls construction.
type Config struct {
	// PageSize in bytes; defaults to pager.PageSize.
	PageSize int
	// Fanout overrides the page-derived maximum node fanout M.
	Fanout int
	// BlockSize is the expected tuples per base grid cell; defaults to the
	// grid cube's 300.
	BlockSize int
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

type node struct {
	leaf        bool
	parent      hindex.NodeID
	posInParent int
	// coords of the cell in its level's grid, and the level's bins count.
	box  ranking.Box
	kids []hindex.NodeID
	tids []table.TID
	pts  [][]float64
	page pager.PageID
}

// Tree is the merged-grid hierarchy.
type Tree struct {
	dims   []int
	rdims  int
	domain ranking.Box
	center []float64 // domain midpoint: what a point holds in uncovered dimensions
	fanout int
	group  int // bins merged per dimension per level: ⌊M^(1/n)⌋

	nodes  []*node
	root   hindex.NodeID
	height int
	store  *pager.Store
	leafOf map[table.TID]hindex.NodeID
}

// Build partitions t's tuples over the given ranking dimensions.
func Build(t *table.Table, dims []int, domain ranking.Box, cfg Config) *Tree {
	d := len(dims)
	if d == 0 {
		//lint:invariant cuboid construction never requests a 0-dimensional grid
		panic("gridtree: no dimensions")
	}
	fanout := cfg.fanoutFor(d)
	group := int(math.Floor(math.Pow(float64(fanout), 1/float64(d))))
	if group < 2 {
		group = 2
	}
	tr := &Tree{
		dims:   append([]int(nil), dims...),
		rdims:  t.Schema().R(),
		domain: domain,
		center: domain.Center(),
		fanout: fanout,
		group:  group,
		root:   hindex.InvalidNode,
		store:  pager.NewStore(stats.StructRTree, cfg.pageSize()),
		leafOf: make(map[table.TID]hindex.NodeID, t.Len()),
	}
	if t.Len() == 0 {
		return tr
	}

	// Equi-depth bins over the covered dimensions (reusing the grid cube's
	// partitioner on a projected view).
	blockSize := cfg.BlockSize
	if blockSize <= 0 {
		blockSize = 300
	}
	proj := projectTable(t, dims)
	meta := gridcube.NewMeta(proj, blockSize)

	// Base cells: bucket tuples by block id.
	cells := make(map[gridcube.BID][]table.TID)
	buf := make([]float64, d)
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
		for j, dim := range dims {
			buf[j] = t.Rank(tid, dim)
		}
		cells[meta.BlockOf(buf)] = append(cells[meta.BlockOf(buf)], tid)
	}

	// Build leaf nodes per non-empty cell, tracked by cell coordinates.
	var level []levelCell
	for bid, tids := range cells {
		nd := &node{leaf: true, parent: hindex.InvalidNode, box: cellBox(tr, meta, bid)}
		for _, tid := range tids {
			nd.tids = append(nd.tids, tid)
			pt := make([]float64, d)
			for j, dim := range dims {
				pt[j] = t.Rank(tid, dim)
			}
			nd.pts = append(nd.pts, pt)
		}
		id := tr.addNode(nd)
		level = append(level, levelCell{coords: meta.Coords(bid, nil), id: id})
	}
	sortLevel(level)
	tr.height = 1

	// Merge upward: every `group` bins per dimension collapse into one
	// parent cell; empty parents never materialize because children come
	// only from non-empty cells.
	for len(level) > 1 {
		sortLevel(level)
		parents := make(map[string]*node)
		coordsOf := make(map[string][]int)
		for _, lc := range level {
			up := make([]int, d)
			for j := range up {
				up[j] = lc.coords[j] / tr.group
			}
			key := fmt.Sprint(up)
			p, ok := parents[key]
			if !ok {
				p = &node{parent: hindex.InvalidNode, box: tr.emptyBox()}
				parents[key] = p
				coordsOf[key] = up
			}
			p.kids = append(p.kids, lc.id)
			growBox(&p.box, tr.nodes[lc.id].box)
		}
		keys := make([]string, 0, len(parents))
		for key := range parents {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		next := make([]levelCell, 0, len(parents))
		for _, key := range keys {
			id := tr.addNode(parents[key])
			next = append(next, levelCell{coords: coordsOf[key], id: id})
		}
		level = next
		tr.height++
	}
	tr.root = level[0].id
	tr.wireParents()
	// Signature codecs size node bit-arrays by MaxFanout; leaf occupancy
	// under equi-depth partitioning can exceed the page-derived fanout, so
	// report the widest node.
	for id := range tr.nodes {
		if w := tr.NumChildren(hindex.NodeID(id)); w > tr.fanout {
			tr.fanout = w
		}
	}
	return tr
}

// projectTable exposes only the covered ranking dimensions to the grid
// partitioner.
func projectTable(t *table.Table, dims []int) *table.Table {
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = t.Schema().RankNames[d]
	}
	out := table.MustNew(table.Schema{
		SelNames: []string{"x"}, SelCard: []int{1}, RankNames: names,
	})
	row := make([]float64, len(dims))
	for i := 0; i < t.Len(); i++ {
		for j, d := range dims {
			row[j] = t.Rank(table.TID(i), d)
		}
		out.Append([]int32{0}, row)
	}
	return out
}

func cellBox(tr *Tree, meta gridcube.Meta, bid gridcube.BID) ranking.Box {
	low := meta.BlockBox(bid) // box over projected dims (positions 0..d-1)
	box := tr.domain.Clone()
	for j, dim := range tr.dims {
		box.Lo[dim] = low.Lo[j]
		box.Hi[dim] = low.Hi[j]
	}
	return box
}

func (tr *Tree) emptyBox() ranking.Box {
	box := tr.domain.Clone()
	for _, dim := range tr.dims {
		box.Lo[dim] = math.Inf(1)
		box.Hi[dim] = math.Inf(-1)
	}
	return box
}

func growBox(dst *ranking.Box, src ranking.Box) {
	for i := range dst.Lo {
		if src.Lo[i] < dst.Lo[i] {
			dst.Lo[i] = src.Lo[i]
		}
		if src.Hi[i] > dst.Hi[i] {
			dst.Hi[i] = src.Hi[i]
		}
	}
}

func (tr *Tree) addNode(nd *node) hindex.NodeID {
	nd.page = tr.store.AppendLogical(tr.store.PageSize())
	tr.nodes = append(tr.nodes, nd)
	return hindex.NodeID(len(tr.nodes) - 1)
}

func (tr *Tree) wireParents() {
	for id, nd := range tr.nodes {
		if nd.leaf {
			for _, tid := range nd.tids {
				tr.leafOf[tid] = hindex.NodeID(id)
			}
			continue
		}
		for pos, kid := range nd.kids {
			tr.nodes[kid].parent = hindex.NodeID(id)
			tr.nodes[kid].posInParent = pos
		}
	}
}

// --- hindex.PartitionTree -------------------------------------------------

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
func (tr *Tree) NumChildren(id hindex.NodeID) int {
	nd := tr.nodes[id]
	if nd.leaf {
		return len(nd.tids)
	}
	return len(nd.kids)
}

// Children implements hindex.Index.
func (tr *Tree) Children(id hindex.NodeID) []hindex.ChildRef {
	if tr.nodes[id].leaf {
		return nil
	}
	return hindex.ChildrenOf(tr, id)
}

// EntryBox implements hindex.Index.
func (tr *Tree) EntryBox(id hindex.NodeID, slot int, box ranking.Box) hindex.NodeID {
	kid := tr.nodes[id].kids[slot]
	copy(box.Lo, tr.nodes[kid].box.Lo)
	copy(box.Hi, tr.nodes[kid].box.Hi)
	return kid
}

// EntryPoint implements hindex.Index. Uncovered dimensions hold the domain
// midpoint.
func (tr *Tree) EntryPoint(id hindex.NodeID, slot int, pt []float64) table.TID {
	nd := tr.nodes[id]
	copy(pt, tr.center)
	for j, dim := range tr.dims {
		pt[dim] = nd.pts[slot][j]
	}
	return nd.tids[slot]
}

// ChildAt implements hindex.Index.
func (tr *Tree) ChildAt(id hindex.NodeID, slot int) hindex.NodeID {
	return tr.nodes[id].kids[slot]
}

// LeafEntries implements hindex.Index.
func (tr *Tree) LeafEntries(id hindex.NodeID) []hindex.LeafEntry {
	if !tr.nodes[id].leaf {
		return nil
	}
	return hindex.LeafEntriesOf(tr, id)
}

// NodeBox implements hindex.Index.
func (tr *Tree) NodeBox(id hindex.NodeID) ranking.Box { return tr.nodes[id].box.Clone() }

// Page implements hindex.Index.
func (tr *Tree) Page(id hindex.NodeID) pager.PageID { return tr.nodes[id].page }

// Store implements hindex.Index.
func (tr *Tree) Store() *pager.Store { return tr.store }

// Path implements hindex.Index.
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

// LeafPath implements hindex.TupleLocator.
func (tr *Tree) LeafPath(tid table.TID) []int {
	id, ok := tr.leafOf[tid]
	if !ok {
		return nil
	}
	return tr.Path(id)
}

// TuplePath implements hindex.PartitionTree.
func (tr *Tree) TuplePath(tid table.TID) []int {
	leaf, ok := tr.leafOf[tid]
	if !ok {
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

// TIDAt implements hindex.PartitionTree.
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

// ValueOrdered implements hindex.ValueOrdered.
func (tr *Tree) ValueOrdered() bool { return false }

// NumNodes reports the node count.
func (tr *Tree) NumNodes() int { return len(tr.nodes) }

var _ hindex.PartitionTree = (*Tree)(nil)

// levelCell pairs a node with its cell coordinates at some merge level.
type levelCell struct {
	coords []int
	id     hindex.NodeID
}

// sortLevel orders cells lexicographically by coordinates so construction
// (and therefore node paths) is deterministic.
func sortLevel(level []levelCell) {
	sort.Slice(level, func(a, b int) bool {
		ca, cb := level[a].coords, level[b].coords
		for i := range ca {
			if ca[i] != cb[i] {
				return ca[i] < cb[i]
			}
		}
		return level[a].id < level[b].id
	})
}
