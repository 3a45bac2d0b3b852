// Package sigcube implements the signature-based ranking cube of thesis
// chapter 4: an R-tree partition of the ranking dimensions whose per-cell
// measure is a compressed signature (internal/signature), built with the
// cubing algorithm (Alg. 1), maintained incrementally under insertions and
// deletions (Alg. 2), and queried with a branch-and-bound search that pushes
// ranking pruning and boolean pruning simultaneously (Alg. 3).
package sigcube

import (
	"fmt"
	"sort"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/guard"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Config controls cube construction.
type Config struct {
	// PageSize in bytes; defaults to pager.PageSize.
	PageSize int
	// RTree configures the partition tree.
	RTree rtree.Config
	// Cuboids selects which cuboids to materialize (sets of selection
	// dimensions). Nil materializes all atomic cuboids — the ranking-cube
	// always contains those so any boolean predicate can be assembled
	// online (§4.3.3).
	Cuboids [][]int
	// BaselineCoding disables adaptive node compression (fig. 4.10's
	// baseline series).
	BaselineCoding bool
	// LossySignatures replaces exact signatures with per-cell bloom filters
	// over marked SIDs (§4.5); queries re-verify tuples by random access.
	LossySignatures bool
}

func (c Config) pageSize() int {
	if c.PageSize > 0 {
		return c.PageSize
	}
	return pager.PageSize
}

// Cuboid is one materialized signature cuboid. Cells hold either exact
// stored signatures or, under Config.LossySignatures, bloom filters.
type Cuboid struct {
	dims   []int
	cards  []int
	cells  map[uint64]*signature.Stored
	blooms map[uint64]*bloomCell
}

// cellKey packs selection values (aligned with dims) into a mixed radix key.
func (cb *Cuboid) cellKey(vals []int32) uint64 {
	key := uint64(0)
	for i, v := range vals {
		key = key*uint64(cb.cards[i]) + uint64(v)
	}
	return key
}

// cell is the key of the cell cond selects in the cuboid; in is false when a
// value lies outside its dimension's [0, card): it selects nothing, and its
// mixed-radix key would name another cell.
func (cb *Cuboid) cell(cond core.Cond) (key uint64, in bool) {
	for i, d := range cb.dims {
		v := cond[d]
		if v < 0 || int(v) >= cb.cards[i] {
			return 0, false
		}
		key = key*uint64(cb.cards[i]) + uint64(v)
	}
	return key, true
}

// Cube is the signature ranking cube.
type Cube struct {
	t       *table.Table
	rt      hindex.PartitionTree
	enc     *signature.Encoder
	store   *pager.Store
	cuboids map[string]*Cuboid
	// order lists the cuboids by ascending core.IntsKey: the order cells are
	// written in, so that a store's page layout repeats from run to run.
	order []*Cuboid
	// paths holds, by TID, the SID of each tuple's current partition path
	// (hindex.SID of the path with its leaf slot), 0 for a tuple the partition
	// does not hold: the bookkeeping incremental maintenance diffs against.
	paths []uint64
	// epoch counts the writes applied to the partition. What a reader kept of
	// it — a skyline snapshot's SIDs and pruned nodes — holds only while the
	// count stands.
	epoch uint64
	cfg   Config
	// ctl is the serving control block: queries hold it shared, maintenance
	// and repair exclusive.
	ctl *guard.RW
}

// Build runs the cubing algorithm (Alg. 1): partition tuples with an R-tree
// over all ranking dimensions, generate per-tuple paths, then for each cuboid
// sort tuples into cells and generate, compress, decompose, and store each
// cell's signature.
func Build(t *table.Table, cfg Config) *Cube {
	r := t.Schema().R()
	dims := make([]int, r)
	for i := range dims {
		dims[i] = i
	}
	return BuildOnTree(t, rtree.Bulk(t, dims, ranking.NewBox(t.RankBounds()), cfg.RTree), cfg)
}

// BuildOnTree builds the cube over an existing partition tree — the R-tree
// or the merged-grid hierarchy, the two implementations of §4.1.2.
func BuildOnTree(t *table.Table, rt hindex.PartitionTree, cfg Config) *Cube {
	c := &Cube{
		t:       t,
		rt:      rt,
		store:   pager.NewStore(stats.StructSignature, cfg.pageSize()),
		cuboids: make(map[string]*Cuboid),
		paths:   make([]uint64, t.Len()),
		cfg:     cfg,
		ctl:     guard.New(),
	}
	// Line 2 of Alg. 1: generate paths for all tuples.
	for i := range c.paths {
		c.paths[i] = c.sid(rt.TuplePath(table.TID(i)))
	}

	schema := t.Schema()
	cuboids := cfg.Cuboids
	if cuboids == nil {
		for d := 0; d < schema.S(); d++ {
			cuboids = append(cuboids, []int{d})
		}
	}
	for _, dims := range cuboids {
		cb := &Cuboid{dims: append([]int(nil), dims...), cards: make([]int, len(dims))}
		sort.Ints(cb.dims)
		if key := core.IntsKey(cb.dims); c.cuboids[key] == nil {
			for i, d := range cb.dims {
				cb.cards[i] = schema.SelCard[d]
			}
			c.cuboids[key] = cb
			c.order = append(c.order, cb)
		}
	}
	sort.Slice(c.order, func(a, b int) bool { return core.IntsKey(c.order[a].dims) < core.IntsKey(c.order[b].dims) })
	c.RebuildStore()
	return c
}

// Cuboid returns the cuboid over exactly dims, or nil.
func (c *Cube) Cuboid(dims []int) *Cuboid {
	sorted := append([]int(nil), dims...)
	sort.Ints(sorted)
	return c.cuboids[core.IntsKey(sorted)]
}

// Tree exposes the partition tree.
func (c *Cube) Tree() hindex.PartitionTree { return c.rt }

// Table exposes the underlying relation.
func (c *Cube) Table() *table.Table { return c.t }

// Epoch reports how many writes the partition has taken.
func (c *Cube) Epoch() uint64 { return c.epoch }

// Store exposes the signature page store (space accounting).
func (c *Cube) Store() *pager.Store { return c.store }

// Ctl returns the cube's serving control block.
func (c *Cube) Ctl() *guard.RW { return c.ctl }

// RebuildStore materializes the signature store from the cube's maintained
// state: Build's last step (lines 4–6 of Alg. 1) and the quarantine repair
// path after page corruption. The store is reset in place (its identity,
// fault-injection attachments, and lifecycle state survive), the encoder
// carries over, with the storage it decodes into, at the partition's current
// height, and every cuboid's cells are generated from the tuple paths
// incremental maintenance keeps current, so inserts and deletes applied since
// Build are reflected. The caller must hold the cube's control exclusively.
// It returns the number of pages the rebuild materialized.
func (c *Cube) RebuildStore() int {
	c.store.Reset()
	if c.enc == nil {
		c.enc = signature.NewEncoder(c.rt.MaxFanout(), c.rt.Height(), c.store)
		c.enc.SetBaselineOnly(c.cfg.BaselineCoding)
	}
	c.enc.SetHeight(c.rt.Height())

	// The live tuples' paths, unpacked once for every cuboid.
	paths := make([][]int, len(c.paths))
	for i := range paths {
		paths[i] = c.path(table.TID(i))
	}
	for _, cb := range c.order {
		// Sort the live tuples by the cuboid dimensions (bucketing by cell
		// key), then write one signature per cell, ascending.
		buckets := make(map[uint64][][]int)
		vals := make([]int32, len(cb.dims))
		for i, path := range paths {
			if path == nil {
				continue
			}
			for j, d := range cb.dims {
				vals[j] = c.t.Sel(table.TID(i), d)
			}
			k := cb.cellKey(vals)
			buckets[k] = append(buckets[k], path)
		}
		keys := make([]uint64, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		if c.cfg.LossySignatures {
			cb.blooms = make(map[uint64]*bloomCell, len(keys))
			for _, k := range keys {
				cb.blooms[k] = c.buildBloomCell(buckets[k])
			}
		} else {
			cb.cells = make(map[uint64]*signature.Stored, len(keys))
			for _, k := range keys {
				cb.cells[k] = c.enc.Encode(signature.Generate(c.rt, buckets[k]))
			}
		}
	}
	return c.store.NumPages()
}

// SizeBytes reports the materialized signature footprint.
func (c *Cube) SizeBytes() int64 { return c.store.Bytes() }

// TesterFor assembles the boolean-pruning tester for a conjunctive
// condition (§4.3.3): the exactly-matching cuboid cell when materialized,
// otherwise the intersection of atomic cuboid cells. The bool result is
// false when some required cell is empty — no tuple can match, so the query
// can return immediately, as it does when a value lies outside its
// dimension's domain (Cuboid.cell). The views of the tester are on loan: the
// search that starts on it (BestFirst.Start) hands them back at its Release,
// and a caller that starts none, with signature.Release. A tester the caller
// wraps in one of its own keeps them past its search, and they go to the
// garbage collector instead.
func (c *Cube) TesterFor(cond core.Cond, ctr *stats.Counters) (signature.Tester, bool, error) {
	dims := cond.Dims()
	if len(dims) == 0 {
		return signature.True{}, true, nil
	}
	if c.cfg.LossySignatures {
		tester, any := c.lossyTesterFor(cond, ctr)
		return tester, any, nil
	}
	if cb := c.Cuboid(dims); cb != nil {
		stored := cb.stored(cond)
		if stored == nil {
			return nil, false, nil
		}
		return signature.NewView(stored, c.enc.Codec(), c.store, ctr), true, nil
	}
	testers := make(signature.And, 0, len(dims))
	for _, d := range dims {
		cb := c.Cuboid([]int{d})
		if cb == nil {
			signature.Release(testers)
			return nil, false, fmt.Errorf("sigcube: no cuboid covers dimension %d: %w", d, errs.ErrInvalidArgument)
		}
		stored := cb.stored(cond)
		if stored == nil {
			signature.Release(testers)
			return nil, false, nil
		}
		testers = append(testers, signature.NewView(stored, c.enc.Codec(), c.store, ctr))
	}
	return testers, true, nil
}

// stored returns cb's cell for cond, or nil when the cell is empty.
func (cb *Cuboid) stored(cond core.Cond) *signature.Stored {
	key, in := cb.cell(cond)
	stored, ok := cb.cells[key]
	if !in || !ok || stored.NumPartials() == 0 {
		return nil
	}
	return stored
}

// TopK answers a ranked query with boolean predicates using the
// branch-and-bound framework of Alg. 3.
func (c *Cube) TopK(cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) ([]core.Result, error) {
	endTester := ctr.StartSpan("tester")
	tester, any, err := c.TesterFor(cond, ctr)
	endTester()
	if err != nil || !any || k <= 0 {
		signature.Release(tester) // no search takes it over
		return nil, err
	}
	defer ctr.StartSpan("search")()
	return Search(c.rt, tester, c.Verifier(cond, ctr), f, k, ctr), nil
}

// Search is Alg. 3 over any hierarchical index: progressive best-first
// retrieval with ranking pruning (node lower bounds vs. the current kth
// score) and boolean pruning (the tester's answers for the children of each
// qualified node, consulted before the node is read). verify, when not nil,
// re-checks each tuple the search reaches against the relation before it
// becomes a result. It is exposed package-level so the baselines can share
// it: §4.4.1's Ranking baseline is this search with signature.True and a
// verify that reads the tuple's page. The search hands tester's views back
// when it ends.
func Search(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	s := newScanner(idx, tester, verify, f, ctr)
	defer s.Release()
	return s.take(k)
}

// SearchTopK is Search with nothing to verify.
func SearchTopK(idx hindex.Index, tester signature.Tester, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	return Search(idx, tester, nil, f, k, ctr)
}
