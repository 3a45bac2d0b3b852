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
	// Fanout overrides the page-derived maximum node fanout M.
	Fanout int
	// BlockSize is the expected tuples per base grid cell; defaults to the
	// grid cube's 300.
	BlockSize int
}

// Tree is the merged-grid hierarchy: the shared node store as Build fills it.
type Tree struct {
	hindex.Nodes
}

// Build partitions t's tuples over the given ranking dimensions.
func Build(t *table.Table, dims []int, domain ranking.Box, cfg Config) *Tree {
	d := len(dims)
	if d == 0 {
		//lint:invariant cuboid construction never requests a 0-dimensional grid
		panic("gridtree: no dimensions")
	}
	store := pager.NewStore(stats.StructRTree, pager.PageSize)
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = hindex.RectFanout(store.PageSize(), d)
	}
	// Bins merged per dimension per level: ⌊M^(1/n)⌋.
	group := int(math.Floor(math.Pow(float64(fanout), 1/float64(d))))
	if group < 2 {
		group = 2
	}
	tr := &Tree{hindex.NewNodes(dims, domain, fanout, store, t.Len())}
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
	pt := make([]float64, d)
	for i := 0; i < t.Len(); i++ {
		bid := meta.BlockOf(proj.RankRow(table.TID(i), pt))
		cells[bid] = append(cells[bid], table.TID(i))
	}

	// Build leaf nodes per non-empty cell, tracked by cell coordinates. A
	// node's cell, not the tuples in it, bounds its entry in its parent. A
	// page holds fanout entries, so a leaf of more tuples takes, and an access
	// to it charges, ⌈tuples / fanout⌉ pages.
	var level []levelCell
	for bid, tids := range cells {
		pages := (len(tids) + fanout - 1) / fanout
		id := tr.AddNode(true, pages*store.PageSize(), len(tids))
		for _, tid := range tids {
			tr.AppendTuple(id, tid, proj.RankRow(tid, pt))
		}
		level = append(level, levelCell{coords: meta.Coords(bid, nil), id: id, box: meta.BlockBox(bid)})
	}
	height := 1

	// Merge upward: every `group` bins per dimension collapse into one
	// parent cell; empty parents never materialize because children come
	// only from non-empty cells.
	for len(level) > 1 {
		sortLevel(level)
		kids := make(map[string][]levelCell)
		for _, lc := range level {
			for j := range lc.coords {
				lc.coords[j] /= group
			}
			key := fmt.Sprint(lc.coords)
			kids[key] = append(kids[key], lc)
		}
		keys := make([]string, 0, len(kids))
		for key := range kids {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		level = level[:0]
		for _, key := range keys {
			id := tr.AddNode(false, store.PageSize(), len(kids[key]))
			for _, lc := range kids[key] {
				tr.AppendChild(id, lc.id, lc.box.Lo, lc.box.Hi)
			}
			box := ranking.NewBox(make([]float64, d), make([]float64, d))
			tr.MBR(id, box.Lo, box.Hi)
			level = append(level, levelCell{coords: kids[key][0].coords, id: id, box: box})
		}
		height++
	}
	tr.SetRoot(level[0].id, height)
	// Signature codecs size node bit-arrays by MaxFanout; leaf occupancy
	// under equi-depth partitioning can exceed the page-derived fanout, so
	// report the widest node.
	for id := 0; id < tr.NumNodes(); id++ {
		if w := tr.NumChildren(hindex.NodeID(id)); w > tr.MaxFanout() {
			tr.SetMaxFanout(w)
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

// ValueOrdered implements hindex.ValueOrdered.
func (tr *Tree) ValueOrdered() bool { return false }

var _ hindex.PartitionTree = (*Tree)(nil)

// levelCell is a node at some merge level: its cell coordinates there and its
// bounds over the covered dimensions.
type levelCell struct {
	coords []int
	id     hindex.NodeID
	box    ranking.Box
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
