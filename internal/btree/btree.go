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
	"sort"

	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

const entryBytes = 20

// Tree is a B+-tree over one ranking dimension of a relation: the shared
// node store as Build fills it, entries in attribute order.
type Tree struct {
	hindex.Nodes
}

// Config controls tree construction.
type Config struct {
	// PageSize in bytes; defaults to pager.PageSize.
	PageSize int
	// Fanout overrides the page-derived fanout when > 0 (node-size
	// experiments, thesis fig. 5.19).
	Fanout int
}

// Build bulk-loads a B+-tree over ranking dimension dim of t, every node
// full (a fill factor of 1). The domain box must be the relation-wide
// full-width domain so cross-index joint boxes compose correctly.
func Build(t *table.Table, dim int, domain ranking.Box, cfg Config) *Tree {
	store := pager.NewStore(stats.StructBTree, cfg.PageSize)
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = max(2, store.PageSize()/entryBytes)
	}
	perNode := max(2, fanout)

	n := t.Len()
	tr := &Tree{hindex.NewNodes([]int{dim}, domain, fanout, store, n)}
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
	var level []hindex.NodeID
	for i := 0; i < n; i += perNode {
		tids := order[i:min(i+perNode, n)]
		nd := tr.AddNode(true, len(tids)*entryBytes, len(tids))
		for _, tid := range tids {
			tr.AppendTuple(nd, tid, col[tid:tid+1])
		}
		level = append(level, nd)
	}
	height := 1

	// Build internal levels bottom-up: an entry spans its child's values.
	var lo, hi [1]float64
	for len(level) > 1 {
		var next []hindex.NodeID
		for i := 0; i < len(level); i += perNode {
			kids := level[i:min(i+perNode, len(level))]
			nd := tr.AddNode(false, len(kids)*entryBytes, len(kids))
			for _, kid := range kids {
				tr.MBR(kid, lo[:], hi[:])
				tr.AppendChild(nd, kid, lo[:], hi[:])
			}
			next = append(next, nd)
		}
		level = next
		height++
	}
	tr.SetRoot(level[0], height)
	return tr
}

// ValueOrdered implements hindex.ValueOrdered: B+-tree entries are sorted
// by attribute value at every level.
func (tr *Tree) ValueOrdered() bool { return true }

var _ hindex.Index = (*Tree)(nil)
