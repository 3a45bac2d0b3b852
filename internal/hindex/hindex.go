// Package hindex defines the hierarchical index abstraction shared by the
// B+-tree and R-tree substrates. The thesis' signature measures (ch. 4) and
// index-merge framework (ch. 5) are defined over any index in which "a
// subspace occupied by a tree node is always contained in the subspace of
// its parent node" (§5.1.1); this package captures exactly that contract,
// plus the node-path and SID machinery signatures are keyed by (§4.2.1), and
// holds the one node store (Nodes) that implements its read side for all
// three trees.
package hindex

import (
	"rankcube/internal/errs"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// NodeID identifies a node within one index.
type NodeID int32

// InvalidNode is the "no node" sentinel.
const InvalidNode NodeID = -1

// ChildRef describes one entry of an internal node: the child node and its
// bounding box. Boxes are full-width over the relation's ranking dimensions;
// dimensions the index does not cover span the index's domain, so joint
// boxes across indexes compose by per-dimension intersection.
type ChildRef struct {
	ID  NodeID
	Box ranking.Box
}

// LeafEntry describes one tuple entry of a leaf node. Point is full-width;
// uncovered dimensions hold the domain midpoint and must not be consumed by
// ranking functions that reference them.
type LeafEntry struct {
	TID   table.TID
	Point []float64
}

// Index is a hierarchical, block-resident index over a subset of the ranking
// dimensions. An entry is stored over the covered dimensions only (Rect); the
// signature search scores it there, and widens it to the full width (EntryBox,
// EntryPoint) only for a filter's payload or a function ranking.Bound does not
// take. Index-merge scores full-width joint boxes.
type Index interface {
	// Dims lists the ranking-dimension positions the index covers, ascending.
	Dims() []int
	// Domain is the full-width box enclosing all indexed data.
	Domain() ranking.Box
	// Root returns the root node (InvalidNode when empty).
	Root() NodeID
	// Height reports the number of levels (1 = root is a leaf).
	Height() int
	// MaxFanout reports the maximum entries per node (the thesis' M).
	MaxFanout() int
	// IsLeaf reports whether id is a leaf node.
	IsLeaf(id NodeID) bool
	// NumChildren reports the number of entries in node id (children of an
	// internal node, tuples of a leaf).
	NumChildren(id NodeID) int
	// Children returns the entries of internal node id in slot order.
	Children(id NodeID) []ChildRef
	// ChildAt returns the child node in the given 0-based slot of internal
	// node id, without materializing the full entry list.
	ChildAt(id NodeID, slot int) NodeID
	// TupleAt is ChildAt for the tuple in a slot of leaf node id.
	TupleAt(id NodeID, slot int) table.TID
	// Rect returns the bounds of the entry in the given slot of node id over
	// the covered dimensions (Dims, in that order) as views of the index's
	// storage — a leaf entry's point as both — valid until the node next
	// changes. A search scores entries on them (ranking.Bound), where
	// EntryBox and EntryPoint widen them first.
	Rect(id NodeID, slot int) (lo, hi []float64)
	// LeafEntries returns the tuples of leaf node id in slot order.
	LeafEntries(id NodeID) []LeafEntry
	// EntryBox writes the full-width bounding box of the entry in the given
	// 0-based slot of internal node id into box, whose Lo and Hi the caller
	// sized to the relation's ranking width, and returns the child node. It
	// allocates nothing: a search widens a node's entries into one box.
	EntryBox(id NodeID, slot int, box ranking.Box) NodeID
	// EntryPoint is EntryBox for the tuple in the given slot of leaf node id:
	// it writes the full-width point into pt and returns the tuple.
	EntryPoint(id NodeID, slot int, pt []float64) table.TID
	// NodeBox writes the full-width bounding box of node id into box, sized
	// like EntryBox's, and returns it.
	NodeBox(id NodeID, box ranking.Box) ranking.Box
	// Page returns the storage page holding node id, for I/O accounting.
	Page(id NodeID) pager.PageID
	// Store returns the backing page store.
	Store() *pager.Store
	// Path returns the entry positions from the root to node id (thesis
	// §4.2.1): the root has an empty path; a level-l node has l positions,
	// 1-based as in the thesis.
	Path(id NodeID) []int
	// AppendPath appends Path(id) to dst: a loop that asks for one path
	// after another keeps one buffer.
	AppendPath(dst []int, id NodeID) []int
}

// TupleLocator is implemented by indexes that can resolve a tuple to the
// path of the leaf node holding it (thesis §5.3.2: "we only need to know
// which leaf-node contains t", so tuple paths for join-signatures drop the
// leaf slot). Join-signature construction requires it.
type TupleLocator interface {
	LeafPath(tid table.TID) []int
}

// ValueOrdered is implemented by indexes whose children within a node are
// sorted by attribute value (B+-trees). Index-merge neighborhood expansion
// (§5.2.2) requires a total order on node entries and is only offered over
// such indexes.
type ValueOrdered interface {
	ValueOrdered() bool
}

// PartitionTree is the contract ranking-cube measures are built over: a
// hierarchical index that can also resolve tuples to and from their paths.
// Both chapter 4 partition schemes implement it — the R-tree
// (internal/rtree) and the merged-grid hierarchy (internal/gridtree),
// thesis figs. 4.1/4.2.
type PartitionTree interface {
	Index
	TupleLocator
	// TuplePath returns a tuple's full path including its leaf slot.
	TuplePath(tid table.TID) []int
	// NodeAt resolves a node path back to the node.
	NodeAt(path []int) (NodeID, bool)
}

// MaintainableTree is implemented by partition trees supporting incremental
// updates (the R-tree; grid partitions re-partition periodically instead,
// §1.3.1). Insert and Delete return the set of tuples whose paths changed.
type MaintainableTree interface {
	Insert(tid table.TID, point []float64) []table.TID
	Delete(tid table.TID) ([]table.TID, bool)
}

// Accessor mediates node access during one query, charging block reads
// through a per-query buffer so repeated visits to a node are billed once —
// or once per navigation chain, when Hold hands it what the chain retrieved.
// The zero value is ready for Reset, and an accessor kept from query to query
// keeps its buffer's storage and its scratch.
type Accessor struct {
	Idx Index
	buf pager.Buffer
	c   *stats.Counters
	// box and pt are the scratch Child and Tuple decode entries into.
	box ranking.Box
	pt  []float64
}

// Reset readies a for a query over idx charging c, with nothing retrieved. A
// nil c would charge every node visit to nobody, so it aborts.
func (a *Accessor) Reset(idx Index, c *stats.Counters) {
	if c == nil {
		errs.Abortf(errs.ErrInternal, "hindex: accessor with nil counters")
	}
	if r := idx.Domain().Dims(); len(a.pt) != r {
		scratch := make([]float64, 3*r)
		a.box, a.pt = ranking.NewBox(scratch[:r:r], scratch[r:2*r:2*r]), scratch[2*r:]
	}
	a.Idx, a.c = idx, c
	a.buf.Reset(idx.Store())
}

// Visit charges node id's page and reports how many entries it holds; the
// entries are then read one slot at a time with Child or Tuple.
func (a *Accessor) Visit(id NodeID) int {
	a.buf.Touch(a.Idx.Page(id), a.c)
	return a.Idx.NumChildren(id)
}

// Child returns the child node and bounding box in one slot of a visited
// internal node. The box is the accessor's scratch, overwritten by the next
// Child or NodeBox call.
func (a *Accessor) Child(id NodeID, slot int) (NodeID, ranking.Box) {
	return a.Idx.EntryBox(id, slot, a.box), a.box
}

// NodeBox returns node id's bounding box in the accessor's scratch,
// overwritten by the next NodeBox or Child call.
func (a *Accessor) NodeBox(id NodeID) ranking.Box { return a.Idx.NodeBox(id, a.box) }

// Tuple returns the tuple and point in one slot of a visited leaf. The point
// is the accessor's scratch, overwritten by the next Tuple call.
func (a *Accessor) Tuple(id NodeID, slot int) (table.TID, []float64) {
	return a.Idx.EntryPoint(id, slot, a.pt), a.pt
}

// Hold starts the accessor with the pages an earlier step of the caller's
// chain retrieved, as Held returned them: visits to their nodes are free.
func (a *Accessor) Hold(held []uint64) { a.buf.Hold(held) }

// Held hands over the pages retrieved through the accessor, held ones
// included, for Hold at the next step. The accessor is spent: a later visit
// aborts.
func (a *Accessor) Held() []uint64 { return a.buf.Touched() }

// Retrieved reports whether node id's page has already been read through
// this accessor (used for redundant-state detection, thesis §5.1.3: a leaf
// index node is redundant if it has been retrieved previously).
func (a *Accessor) Retrieved(id NodeID) bool {
	return a.buf.Seen(a.Idx.Page(id))
}

// SID encodes a node path as the thesis' signature id:
// SID = p0·(M+1)^l + p1·(M+1)^(l−1) + … + p_{l−1}, with the empty (root)
// path mapping to 0.
func SID(path []int, maxFanout int) uint64 {
	base := uint64(maxFanout + 1)
	var sid uint64
	for _, p := range path {
		sid = sid*base + uint64(p)
	}
	return sid
}

// PathOf decodes sid back into the path it encodes, appended to dst[:0].
// Positions are 1-based, so no radix-(M+1) digit of a SID is zero and the
// path's length is the digit count.
func PathOf(dst []int, sid uint64, maxFanout int) []int {
	base := uint64(maxFanout + 1)
	dst = dst[:0]
	for ; sid != 0; sid /= base {
		dst = append(dst, int(sid%base))
	}
	for i, j := 0, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
