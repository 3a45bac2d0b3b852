package gridcube

import (
	"rankcube/internal/table"
)

// Incremental maintenance for the grid ranking cube (thesis §1.3.1): "for
// grid partition, one can temporally allocate new data according to
// pre-computed blocks, and re-partition the data periodically". Inserts
// place tuples into the existing equi-depth blocks (boundaries unchanged)
// and append to the affected cuboid cells; Repartition rebuilds the cube
// from scratch when drift accumulates. Deletions tombstone tuples until the
// next repartition.

// Insert appends a tuple to the relation and registers it in the base block
// table and every cuboid, using the pre-computed partition boundaries.
func (c *Cube) Insert(sel []int32, rank []float64) table.TID {
	tid := c.t.Append(sel, rank)
	bid := c.meta.BlockOf(rank)

	// Base block table: the row goes last in its block, not in selection
	// order; Repartition sorts it in.
	c.blocks.insert(bid, tid, rank)

	// Cuboids: append to the overflow list of the affected cell, which
	// grows its run by one entry beyond the materialized bytes.
	for _, cb := range c.cuboids {
		vals := make([]int32, len(cb.dims))
		for j, d := range cb.dims {
			vals[j] = sel[d]
		}
		key := cb.cellKey(vals, cb.PseudoOf(bid))
		if cb.extra == nil {
			cb.extra = make(map[uint64][]Entry)
		}
		cb.extra[key] = append(cb.extra[key], Entry{TID: tid, BID: bid})
		ref := cb.cells[key]
		size := int(ref.bytes) + len(cb.extra[key])*entryBytes
		if cb.compressed && len(ref.pages) > 0 {
			cb.store.Resize(ref.pages[0], size)
		} else {
			ref.pages = growRun(cb.store, ref.pages, size)
		}
		cb.cells[key] = ref
	}
	c.inserted++
	return tid
}

// Delete tombstones a tuple: it stops appearing in query results
// immediately and is physically removed at the next Repartition. It reports
// whether the tuple existed and was not already deleted.
func (c *Cube) Delete(tid table.TID) bool {
	if tid < 0 || int(tid) >= c.t.Len() || c.tombstones[tid] {
		return false
	}
	if c.tombstones == nil {
		c.tombstones = make(map[table.TID]bool)
	}
	c.tombstones[tid] = true
	return true
}

// PendingMaintenance reports how much drift has accumulated: tuples
// inserted since the last repartition plus tombstones. Callers repartition
// when this grows past their threshold (the thesis' "periodically").
func (c *Cube) PendingMaintenance() int {
	return c.inserted + len(c.tombstones)
}

// Repartition rebuilds the cube in place over the surviving tuples:
// boundaries are recomputed (restoring equi-depth balance), overflow lists
// fold into the cells, and tombstoned tuples vanish. Tuple ids change when
// deletions occurred; the mapping from old to new ids is returned (nil when
// no tuple moved).
func (c *Cube) Repartition() map[table.TID]table.TID {
	var remap map[table.TID]table.TID
	source := c.t
	if len(c.tombstones) > 0 {
		remap = make(map[table.TID]table.TID)
		compact := table.MustNew(source.Schema())
		selBuf := make([]int32, source.Schema().S())
		rankBuf := make([]float64, source.Schema().R())
		for i := 0; i < source.Len(); i++ {
			old := table.TID(i)
			if c.tombstones[old] {
				continue
			}
			newID := compact.Append(source.SelRow(old, selBuf), source.RankRow(old, rankBuf))
			remap[old] = newID
		}
		source = compact
	}
	rebuilt := Build(source, c.cfg)
	// Adopt the rebuilt state field by field, deliberately NOT touching
	// c.ctl: the serving control outlives every rebuild (callers hold it
	// exclusively right now, the API boundary reads the pointer without
	// synchronization, and long-lived references to it must stay valid).
	c.t = rebuilt.t
	c.meta = rebuilt.meta
	c.blocks = rebuilt.blocks
	c.cuboids = rebuilt.cuboids
	c.groups = rebuilt.groups
	c.tombstones = rebuilt.tombstones
	c.inserted = rebuilt.inserted
	c.cfg = rebuilt.cfg
	return remap
}
