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
	"sort"

	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// rect is a low-width (covered-dimensions-only) bounding box: a view of one
// entry of the node store, or scratch.
type rect struct {
	lo, hi []float64
}

func newRect(d int) rect {
	buf := make([]float64, 2*d)
	return rect{buf[:d:d], buf[d:]}
}

func (r rect) clone() rect {
	c := newRect(len(r.lo))
	copy(c.lo, r.lo)
	copy(c.hi, r.hi)
	return c
}

func (r rect) area() float64 {
	a := 1.0
	for i := range r.lo {
		a *= r.hi[i] - r.lo[i]
	}
	return a
}

// unionArea is the area of the smallest box holding r and o.
func (r rect) unionArea(o rect) float64 {
	a := 1.0
	for i := range r.lo {
		a *= max(r.hi[i], o.hi[i]) - min(r.lo[i], o.lo[i])
	}
	return a
}

// grow enlarges r to include o.
func (r rect) grow(o rect) {
	for i := range r.lo {
		r.lo[i] = min(r.lo[i], o.lo[i])
		r.hi[i] = max(r.hi[i], o.hi[i])
	}
}

// Tree is an R-tree over a subset of a relation's ranking dimensions: the
// shared node store, built by Bulk and maintained by Insert and Delete.
type Tree struct {
	hindex.Nodes
	minFill int
	box     rect // scratch of the exclusive writers: a node's MBR on its way into its parent
}

// Config controls construction.
type Config struct {
	// Fanout overrides the page-derived fanout when > 0.
	Fanout int
}

const (
	// minFillRatio is m/M, the least occupancy of a node but the root.
	minFillRatio = 0.4
	// fillFactor is the occupancy Bulk packs nodes to.
	fillFactor = 0.85
)

// New returns an empty tree over the given global ranking dimensions of a
// relation with rdims of them, which is domain's width.
func New(dims []int, rdims int, domain ranking.Box, cfg Config) *Tree {
	return newTree(dims, domain, cfg, 0)
}

// newTree is New with the tuple count the tree is about to be loaded with.
func newTree(dims []int, domain ranking.Box, cfg Config, tuples int) *Tree {
	d := len(dims)
	if d == 0 {
		//lint:invariant cuboid construction never requests a 0-dimensional tree
		panic("rtree: no dimensions")
	}
	store := pager.NewStore(stats.StructRTree, pager.PageSize)
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = hindex.RectFanout(store.PageSize(), d)
	}
	minFill := max(1, int(float64(fanout)*minFillRatio))
	return &Tree{
		Nodes:   hindex.NewNodes(dims, domain, fanout, store, tuples),
		minFill: minFill,
		box:     newRect(d),
	}
}

// addNode adds an empty node on a page of its own, sized for entries.
func (tr *Tree) addNode(leaf bool, entries int) hindex.NodeID {
	return tr.AddNode(leaf, tr.Store().PageSize(), entries)
}

// adopt appends kid to internal node id under kid's MBR.
func (tr *Tree) adopt(id, kid hindex.NodeID) {
	tr.MBR(kid, tr.box.lo, tr.box.hi)
	tr.AppendChild(id, kid, tr.box.lo, tr.box.hi)
}

// Bulk bulk-loads the tree from relation t with Sort-Tile-Recursive packing.
func Bulk(t *table.Table, dims []int, domain ranking.Box, cfg Config) *Tree {
	n := t.Len()
	tr := newTree(dims, domain, cfg, n)
	if n == 0 {
		return tr
	}
	d := len(dims)
	perNode := max(2, int(float64(tr.MaxFanout())*fillFactor))

	// An item is a tuple at its point or, above the leaves, a node at the
	// centre of its MBR.
	type item struct {
		ref int32
		pt  []float64
	}
	// pack is recursive STR: slice along successive dimensions into tiles
	// holding whole numbers of nodes, and hand each node's items to emit.
	var pack func(its []item, dim int, emit func(its []item))
	pack = func(its []item, dim int, emit func(its []item)) {
		sort.Slice(its, func(a, b int) bool { return its[a].pt[dim] < its[b].pt[dim] })
		last := dim == d-1 || len(its) <= perNode
		size := perNode
		if !last {
			numNodes := (len(its) + perNode - 1) / perNode
			slabs := ceilRoot(numNodes, d-dim)
			size = (numNodes + slabs - 1) / slabs * perNode
		}
		for i := 0; i < len(its); i += size {
			part := its[i:min(i+size, len(its))]
			if last {
				emit(part)
			} else {
				pack(part, dim+1, emit)
			}
		}
	}

	items := make([]item, n)
	pts := make([]float64, n*d)
	for i := range items {
		pt := pts[i*d:][:d:d]
		for j, dim := range dims {
			pt[j] = t.Rank(table.TID(i), dim)
		}
		items[i] = item{ref: int32(i), pt: pt}
	}
	var level []hindex.NodeID
	pack(items, 0, func(its []item) {
		leaf := tr.addNode(true, len(its))
		for _, it := range its {
			tr.AppendTuple(leaf, table.TID(it.ref), it.pt)
		}
		level = append(level, leaf)
	})
	height := 1

	// Pack upper levels by center-sorted STR over node MBRs.
	for len(level) > 1 {
		items, pts = items[:len(level)], pts[:len(level)*d]
		for i, id := range level {
			ctr := pts[i*d:][:d:d]
			tr.MBR(id, tr.box.lo, tr.box.hi)
			for j := range ctr {
				ctr[j] = (tr.box.lo[j] + tr.box.hi[j]) / 2
			}
			items[i] = item{ref: int32(id), pt: ctr}
		}
		level = level[:0]
		pack(items, 0, func(its []item) {
			nd := tr.addNode(false, len(its))
			for _, it := range its {
				tr.adopt(nd, hindex.NodeID(it.ref))
			}
			level = append(level, nd)
		})
		height++
	}
	tr.SetRoot(level[0], height)
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

// ValueOrdered implements hindex.ValueOrdered: R-tree entries carry no
// total order.
func (tr *Tree) ValueOrdered() bool { return false }

var _ hindex.PartitionTree = (*Tree)(nil)
var _ hindex.MaintainableTree = (*Tree)(nil)
