// Package btree implements a bulk-loaded B+-tree over a single ranking
// attribute, exposed through the hindex hierarchical-index contract so the
// index-merge framework (thesis ch. 5) can merge it with other B+-trees and
// R-trees.
//
// Each entry of a node stores the [lo, hi] value range of its subtree (two
// float64s) plus a child pointer — 20 bytes — which with the thesis' 4 KB
// pages yields the fanout of 204 the thesis quotes for B-trees (§5.1.3).
package btree

import (
	"fmt"
	"sort"

	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

const entryBytes = 20

// Tree is a B+-tree over one ranking dimension of a relation.
type Tree struct {
	dim    int // covered ranking-dimension position
	rdims  int // total ranking dimensions of the relation
	fanout int
	domain ranking.Box // full-width domain
	center []float64   // domain midpoint: what a point holds in uncovered dimensions

	nodes  []*node
	root   hindex.NodeID
	height int
	store  *pager.Store
	leafOf map[table.TID]hindex.NodeID
}

type node struct {
	leaf bool
	lo   []float64 // per-entry subtree min (leaf: the value itself)
	hi   []float64 // per-entry subtree max
	kids []hindex.NodeID
	tids []table.TID
	page pager.PageID
	path []int
}

// Config controls tree construction.
type Config struct {
	// PageSize in bytes; defaults to pager.PageSize.
	PageSize int
	// Fanout overrides the page-derived fanout when > 0 (node-size
	// experiments, thesis fig. 5.19).
	Fanout int
	// FillFactor is the bulk-load node occupancy in (0, 1]; defaults to 1.
	FillFactor float64
}

func (c Config) fanout() int {
	if c.Fanout > 0 {
		return c.Fanout
	}
	ps := c.PageSize
	if ps <= 0 {
		ps = pager.PageSize
	}
	f := ps / entryBytes
	if f < 2 {
		f = 2
	}
	return f
}

// Build bulk-loads a B+-tree over ranking dimension dim of t. The domain box
// must be the relation-wide full-width domain so cross-index joint boxes
// compose correctly.
func Build(t *table.Table, dim int, domain ranking.Box, cfg Config) *Tree {
	fanout := cfg.fanout()
	fill := cfg.FillFactor
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	perNode := int(float64(fanout) * fill)
	if perNode < 2 {
		perNode = 2
	}
	ps := cfg.PageSize
	if ps <= 0 {
		ps = pager.PageSize
	}

	tr := &Tree{
		dim:    dim,
		rdims:  t.Schema().R(),
		fanout: fanout,
		domain: domain,
		center: domain.Center(),
		store:  pager.NewStore(stats.StructBTree, ps),
		root:   hindex.InvalidNode,
	}
	n := t.Len()
	if n == 0 {
		return tr
	}

	// Sort tids by attribute value.
	order := make([]table.TID, n)
	for i := range order {
		order[i] = table.TID(i)
	}
	col := t.RankColumn(dim)
	sort.Slice(order, func(a, b int) bool {
		va, vb := col[order[a]], col[order[b]]
		if va != vb {
			return va < vb
		}
		return order[a] < order[b]
	})

	// Build leaf level.
	var level []*node
	for i := 0; i < n; i += perNode {
		j := i + perNode
		if j > n {
			j = n
		}
		nd := &node{leaf: true}
		for _, tid := range order[i:j] {
			v := col[tid]
			nd.lo = append(nd.lo, v)
			nd.hi = append(nd.hi, v)
			nd.tids = append(nd.tids, tid)
		}
		tr.addNode(nd)
		level = append(level, nd)
	}
	tr.height = 1

	// Build internal levels bottom-up.
	for len(level) > 1 {
		var next []*node
		for i := 0; i < len(level); i += perNode {
			j := i + perNode
			if j > len(level) {
				j = len(level)
			}
			nd := &node{}
			for _, child := range level[i:j] {
				nd.lo = append(nd.lo, child.lo[0])
				nd.hi = append(nd.hi, child.hi[len(child.hi)-1])
				nd.kids = append(nd.kids, tr.idOf(child))
			}
			tr.addNode(nd)
			next = append(next, nd)
		}
		level = next
		tr.height++
	}
	tr.root = tr.idOf(level[0])
	tr.assignPaths(level[0], nil)
	tr.leafOf = make(map[table.TID]hindex.NodeID, n)
	for id, nd := range tr.nodes {
		if !nd.leaf {
			continue
		}
		for _, tid := range nd.tids {
			tr.leafOf[tid] = hindex.NodeID(id)
		}
	}
	return tr
}

// LeafPath implements hindex.TupleLocator.
func (tr *Tree) LeafPath(tid table.TID) []int {
	id, ok := tr.leafOf[tid]
	if !ok {
		return nil
	}
	return tr.nodes[id].path
}

// ValueOrdered implements hindex.ValueOrdered: B+-tree entries are sorted
// by attribute value at every level.
func (tr *Tree) ValueOrdered() bool { return true }

func (tr *Tree) addNode(nd *node) {
	nd.page = tr.store.AppendLogical(len(nd.lo) * entryBytes)
	tr.nodes = append(tr.nodes, nd)
}

// idOf finds a node's id; nodes are registered exactly once in addNode.
func (tr *Tree) idOf(nd *node) hindex.NodeID {
	// page ids are assigned in node order, so page == index.
	return hindex.NodeID(nd.page)
}

func (tr *Tree) assignPaths(nd *node, path []int) {
	nd.path = append([]int(nil), path...)
	if nd.leaf {
		return
	}
	for i, kid := range nd.kids {
		tr.assignPaths(tr.nodes[kid], append(path, i+1))
	}
}

// Dim reports the covered ranking-dimension position.
func (tr *Tree) Dim() int { return tr.dim }

// Dims implements hindex.Index.
func (tr *Tree) Dims() []int { return []int{tr.dim} }

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
func (tr *Tree) NumChildren(id hindex.NodeID) int { return len(tr.nodes[id].lo) }

// Children implements hindex.Index.
func (tr *Tree) Children(id hindex.NodeID) []hindex.ChildRef {
	nd := tr.nodes[id]
	if nd.leaf {
		//lint:invariant hindex contract: Children is only defined on internal nodes
		panic(fmt.Sprintf("btree: Children on leaf node %d", id))
	}
	return hindex.ChildrenOf(tr, id)
}

// EntryBox implements hindex.Index.
func (tr *Tree) EntryBox(id hindex.NodeID, slot int, box ranking.Box) hindex.NodeID {
	nd := tr.nodes[id]
	copy(box.Lo, tr.domain.Lo)
	copy(box.Hi, tr.domain.Hi)
	box.Lo[tr.dim] = nd.lo[slot]
	box.Hi[tr.dim] = nd.hi[slot]
	return nd.kids[slot]
}

// EntryPoint implements hindex.Index. Uncovered dimensions hold the domain
// midpoint.
func (tr *Tree) EntryPoint(id hindex.NodeID, slot int, pt []float64) table.TID {
	nd := tr.nodes[id]
	copy(pt, tr.center)
	pt[tr.dim] = nd.lo[slot]
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
		panic(fmt.Sprintf("btree: LeafEntries on internal node %d", id))
	}
	return hindex.LeafEntriesOf(tr, id)
}

// NodeBox implements hindex.Index.
func (tr *Tree) NodeBox(id hindex.NodeID) ranking.Box {
	nd := tr.nodes[id]
	box := tr.domain.Clone()
	if len(nd.lo) > 0 {
		box.Lo[tr.dim] = nd.lo[0]
		box.Hi[tr.dim] = nd.hi[len(nd.hi)-1]
	}
	return box
}

// Page implements hindex.Index.
func (tr *Tree) Page(id hindex.NodeID) pager.PageID { return tr.nodes[id].page }

// Store implements hindex.Index.
func (tr *Tree) Store() *pager.Store { return tr.store }

// Path implements hindex.Index.
func (tr *Tree) Path(id hindex.NodeID) []int { return tr.nodes[id].path }

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
