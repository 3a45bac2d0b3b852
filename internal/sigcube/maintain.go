package sigcube

import (
	"slices"
	"sort"

	"rankcube/internal/errs"
	"rankcube/internal/hindex"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// pathUpdate is one element of the update set U of Alg. 2: a tuple with its
// old partition path (nil for a fresh insert) and new path (nil for a
// delete).
type pathUpdate struct {
	tid      table.TID
	old, new []int
	// cell is the update's target cell in the cuboid being maintained.
	cell uint64
}

// Insert appends a tuple to the relation, inserts it into the partition
// tree, and incrementally maintains every materialized signature (Alg. 2).
// It returns the new tuple's id. Maintenance I/O is charged to ctr.
func (c *Cube) Insert(sel []int32, rank []float64, ctr *stats.Counters) table.TID {
	mt := c.maintainable()
	tid := c.t.Append(sel, rank)
	c.paths = append(c.paths, 0)
	c.epoch++
	affected := mt.Insert(tid, rank)
	defer c.quarantineOnAbort()
	c.applyUpdates(c.moved(nil, affected), ctr)
	return tid
}

// Delete removes a tuple from the partition tree and maintains signatures.
// The relation itself retains the row (tombstoned by absence from the tree),
// matching how the thesis treats deletion as the mirror of insertion.
func (c *Cube) Delete(tid table.TID, ctr *stats.Counters) bool {
	affected, ok := c.maintainable().Delete(tid)
	if !ok {
		return false
	}
	c.epoch++
	defer c.quarantineOnAbort()
	c.applyUpdates(c.moved([]pathUpdate{{tid: tid, old: c.path(tid)}}, affected), ctr)
	return true
}

// moved appends to updates the tuples of affected that the tree holds at
// another path than the cube knows — none yet, for a tuple just inserted. A
// split or a swap can leave a tuple in its slot: nothing to flip.
func (c *Cube) moved(updates []pathUpdate, affected []table.TID) []pathUpdate {
	for _, a := range affected {
		if cur := c.rt.TuplePath(a); cur != nil && c.sid(cur) != c.paths[a] {
			updates = append(updates, pathUpdate{tid: a, old: c.path(a), new: cur})
		}
	}
	return updates
}

// sid packs a tuple path into the path map's form.
func (c *Cube) sid(path []int) uint64 { return hindex.SID(path, c.rt.MaxFanout()) }

// path is the tuple's partition path by the path map, nil for a tuple the
// partition does not hold.
func (c *Cube) path(tid table.TID) []int {
	return hindex.PathOf(nil, c.paths[tid], c.rt.MaxFanout())
}

// applyUpdates routes the update set into each cuboid: group the updates by
// target cell, load that cell's signature, clear old paths and set new ones,
// and write the signature back (Alg. 2 lines 2–8) — cuboids and cells in
// ascending order, so the rewritten partials land on the same freed pages
// from run to run.
func (c *Cube) applyUpdates(updates []pathUpdate, ctr *stats.Counters) {
	// Sync the path map BEFORE touching stored cells: the partition tree has
	// already mutated, and c.paths is what RebuildStore reconstructs the
	// signatures from. With the map synced first, an abort mid-rewrite
	// (storage fault, cancellation) leaves the stored cells torn but the
	// logical state complete — quarantineOnAbort then takes the store out of
	// service until Repair rebuilds it from this map.
	for _, u := range updates {
		c.paths[u.tid] = c.sid(u.new)
	}
	// A root split deepens every path; keep the encoder's height current.
	c.enc.SetHeight(c.rt.Height())
	var vals []int32
	for _, cb := range c.order {
		// Sort updates into cells of this cuboid (Alg. 2 line 3).
		for i := range updates {
			vals = vals[:0]
			for _, d := range cb.dims {
				vals = append(vals, c.t.Sel(updates[i].tid, d))
			}
			updates[i].cell = cb.cellKey(vals)
		}
		sort.Slice(updates, func(a, b int) bool { return updates[a].cell < updates[b].cell })
		for lo, hi := 0, 0; lo < len(updates); lo = hi {
			for hi = lo; hi < len(updates) && updates[hi].cell == updates[lo].cell; hi++ {
			}
			if c.cfg.LossySignatures {
				c.addToBloomCell(cb, updates[lo:hi])
			} else {
				c.rewriteCell(cb, updates[lo:hi], ctr)
			}
		}
	}
}

// rewriteCell applies one cell's updates to its stored signature: decode,
// flip, and encode again — the nodes no flip touched are copied as stored.
// The flips reach no leaf-level node but the parents of the update set's old
// and new paths, so those are the only leaf-level nodes decoded.
func (c *Cube) rewriteCell(cb *Cuboid, us []pathUpdate, ctr *stats.Counters) {
	key := us[0].cell
	stored := cb.cells[key]
	var sig *signature.Node
	if stored != nil {
		var parents []uint64
		for _, u := range us {
			for _, p := range [2][]int{u.old, u.new} {
				if p != nil {
					parents = append(parents, c.sid(p[:len(p)-1]))
				}
			}
		}
		slices.Sort(parents)
		sig = c.enc.Decode(stored, ctr, func(sid uint64) bool {
			_, ok := slices.BinarySearch(parents, sid)
			return ok
		})
	}
	// Two phases: clear every old path first, then set every new one.
	// Interleaving would corrupt the tree when a structural change (e.g. a
	// root split) moves all paths at once.
	for _, u := range us {
		if u.old != nil && sig != nil && sig.Clear(u.old) {
			sig = nil
		}
	}
	for _, u := range us {
		if u.new == nil {
			continue
		}
		if sig == nil {
			sig = signature.Generate(c.rt, [][]int{u.new})
		} else {
			sig.Set(u.new, c.nodeWidth, c.rt.Height())
		}
	}
	// Install the rewritten cell before releasing the old pages: an abort
	// while encoding leaves the old cell in place for quarantine and
	// RebuildStore to deal with, and the encoder copies clean nodes out of
	// the old pages' bytes.
	cb.cells[key] = c.enc.Encode(sig)
	if stored != nil {
		stored.Free(c.store)
	}
}

// quarantineOnAbort runs deferred inside maintenance once the partition tree
// has mutated: if the maintenance aborts after that point (a storage fault or
// an interruption mid-rewrite), the stored signatures no longer agree with
// the tree, so the store is quarantined — queries degrade to exact baseline
// scans, and Repair rebuilds the signatures from the (complete) maintained
// state. The abort itself keeps propagating to the API boundary.
func (c *Cube) quarantineOnAbort() {
	if r := recover(); r != nil {
		c.store.Requarantine()
		//lint:invariant re-raises the in-flight typed abort after quarantining
		panic(r)
	}
}

// maintainable asserts the partition supports incremental updates (the
// R-tree does; grid hierarchies re-partition periodically instead, §1.3.1).
// A partition without that capability aborts with a typed
// ErrStructureUnavailable, which the public API surfaces as an error.
func (c *Cube) maintainable() hindex.MaintainableTree {
	mt, ok := c.rt.(hindex.MaintainableTree)
	if !ok {
		errs.Abortf(errs.ErrStructureUnavailable,
			"sigcube: partition tree does not support incremental maintenance; rebuild the cube instead")
	}
	return mt
}

// nodeWidth reports the current entry count of the partition node at the
// given path prefix (signature nodes must match index node widths).
func (c *Cube) nodeWidth(prefix []int) int {
	id, _ := c.rt.NodeAt(prefix)
	return c.rt.NumChildren(id)
}
