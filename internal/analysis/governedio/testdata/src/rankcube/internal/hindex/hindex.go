// Package hindex stubs the repository's hierarchical-index accessor under
// its real import path. NewAccessor captures the Counters every subsequent
// node visit is charged to, so a nil argument here silently disables the
// governor for the whole traversal. Inside this package the analyzer is
// silent.
package hindex

import "rankcube/internal/stats"

// NodeID identifies a node within one index.
type NodeID int32

// Index is a partition tree whose nodes are read through an Accessor.
type Index interface {
	Children(id NodeID) []NodeID
}

// Accessor mediates node access during one query.
type Accessor struct {
	Idx Index
	c   *stats.Counters
}

// NewAccessor returns an accessor charging idx reads to c.
func NewAccessor(idx Index, c *stats.Counters) *Accessor {
	return &Accessor{Idx: idx, c: c}
}

// Children fetches internal node entries, charging the node's page.
func (a *Accessor) Children(id NodeID) []NodeID {
	a.c.Read(stats.StructRTree, 1)
	return a.Idx.Children(id)
}
