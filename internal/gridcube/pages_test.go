package gridcube

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rankcube/internal/errs"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// pageTable is the relation the page tests build over: three zipfian
// selection dimensions, so some value combinations are absent, and base
// blocks of about 250 tuples, two pages each.
func pageTable() *table.Table {
	return table.Generate(table.GenSpec{T: 20000, S: 3, R: 2, Card: 12, SelZipf: 1.2, Seed: 71})
}

// checkRunBytes holds every store of c to the accounting of one run per base
// block and per cell: a base block's or an uncompressed cell's run takes
// ⌈bytes / PageSize⌉ pages of its own, the pages of all runs together being
// the store's; a compressed cell is one payload page. Bytes() is the sum of
// the runs' bytes and Blocks() the sum of their ⌈bytes / PageSize⌉, what they
// were when a run was a single page.
func checkRunBytes(t *testing.T, c *Cube) {
	t.Helper()
	check := func(s *pager.Store, runs [][]pager.PageID, bytes []int, split bool) {
		t.Helper()
		var wantBytes, wantBlocks int64
		owned := make(map[pager.PageID]bool)
		for i, run := range runs {
			wantBytes += int64(bytes[i])
			wantBlocks += int64(runPages(bytes[i]))
			if want := runPages(bytes[i]); split && len(run) != want {
				t.Fatalf("%s: a run of %d bytes on %d pages, want %d", s.Kind(), bytes[i], len(run), want)
			}
			for _, id := range run {
				if owned[id] {
					t.Fatalf("%s: page %d in two runs", s.Kind(), id)
				}
				owned[id] = true
			}
		}
		if len(owned) != s.NumPages() {
			t.Fatalf("%s: runs own %d pages of %d", s.Kind(), len(owned), s.NumPages())
		}
		if s.Bytes() != wantBytes || s.Blocks() != wantBlocks {
			t.Fatalf("%s: Bytes() = %d, Blocks() = %d; the runs hold %d bytes on %d blocks",
				s.Kind(), s.Bytes(), s.Blocks(), wantBytes, wantBlocks)
		}
	}
	var runs [][]pager.PageID
	var bytes []int
	for _, b := range c.blocks.blocks {
		if len(b.tids) > 0 {
			runs, bytes = append(runs, b.pages), append(bytes, len(b.tids)*c.meta.rowBytes())
		}
	}
	check(c.blocks.store, runs, bytes, true)
	for _, cb := range c.cuboids {
		runs, bytes = runs[:0], bytes[:0]
		for key, ref := range cb.cells {
			runs, bytes = append(runs, ref.pages), append(bytes, int(ref.bytes)+len(cb.extra[key])*entryBytes)
		}
		check(cb.store, runs, bytes, !cb.compressed)
	}
}

// pageSizes reads the logical size of each page of run off s.Bytes(): what
// freeing the page takes away. The store keeps its page sizes to itself, so
// this frees the run; the cube is not used after.
func pageSizes(s *pager.Store, run []pager.PageID) []int {
	sizes := make([]int, len(run))
	for i, id := range run {
		before := s.Bytes()
		s.Free(id)
		sizes[i] = int(before - s.Bytes())
	}
	return sizes
}

// requireFullButLast fails unless every page of run holds PageSize bytes but
// the last, which holds the rest of size.
func requireFullButLast(t *testing.T, what string, s *pager.Store, run []pager.PageID, size int) {
	t.Helper()
	for i, got := range pageSizes(s, run) {
		want := pager.PageSize
		if i == len(run)-1 {
			want = size - i*pager.PageSize
		}
		if got != want {
			t.Fatalf("%s: page %d of %d holds %d bytes, want %d", what, i, len(run), got, want)
		}
	}
}

// TestRunsFillTheirPages pins the storage rule: every page of a base block's
// or an uncompressed cell's run is full but the last — as built, after inserts
// grew runs across page boundaries, and after a repartition — and the stores'
// accounting is what it was when a run was one page.
func TestRunsFillTheirPages(t *testing.T) {
	for _, phase := range []string{"built", "inserted", "repartitioned"} {
		for _, packed := range []bool{false, true} {
			tb := pageTable()
			c := Build(tb, Config{CompressLists: packed})
			rng := rand.New(rand.NewSource(72))
			if phase != "built" {
				for i := 0; i < 3000; i++ {
					c.Insert(tb.SelRow(table.TID(rng.Intn(20000)), nil), []float64{rng.Float64(), rng.Float64()})
				}
			}
			if phase == "repartitioned" {
				for i := 0; i < 500; i++ {
					c.Delete(table.TID(rng.Intn(c.t.Len())))
				}
				c.Repartition()
			}
			checkRunBytes(t, c)
			w := c.meta.rowBytes()
			for _, b := range c.blocks.blocks {
				requireFullButLast(t, phase+" block", c.blocks.store, b.pages, len(b.tids)*w)
			}
			for _, cb := range c.cuboids {
				if cb.compressed {
					continue
				}
				for key, ref := range cb.cells {
					requireFullButLast(t, phase+" cell", cb.store, ref.pages, int(ref.n+int32(len(cb.extra[key])))*entryBytes)
				}
			}
		}
	}
}

// requireRowLayout fails unless the row table locates every tuple's row in
// the block its ranking vector falls in, the row carrying that vector, and
// the rows of the first built tuples of every block follow one another in
// selection order: by selection vector, then tid.
func requireRowLayout(t *testing.T, what string, c *Cube, built table.TID) {
	t.Helper()
	bt := c.blocks
	if len(bt.rowOf) != c.t.Len() {
		t.Fatalf("%s: row table of %d tuples, relation of %d", what, len(bt.rowOf), c.t.Len())
	}
	r := c.meta.R
	for tid := range table.TID(c.t.Len()) {
		rank := c.t.RankRow(tid, nil)
		b, row := bt.blocks[c.meta.BlockOf(rank)], int(bt.rowOf[tid])
		if row >= len(b.tids) || b.tids[row] != tid {
			t.Fatalf("%s: tuple %d is not row %d of its block", what, tid, row)
		}
		if got := b.ranks[row*r : (row+1)*r]; !slices.Equal(got, rank) {
			t.Fatalf("%s: row %d of tuple %d carries %v, want %v", what, row, tid, got, rank)
		}
	}
	for _, b := range bt.blocks {
		for row := 1; row < len(b.tids) && b.tids[row] < built; row++ {
			prev, tid := b.tids[row-1], b.tids[row]
			order := slices.Compare(c.t.SelRow(prev, nil), c.t.SelRow(tid, nil))
			if order > 0 || order == 0 && prev > tid {
				t.Fatalf("%s: tuple %d is the row before tuple %d", what, prev, tid)
			}
		}
	}
}

// TestBlockRowsInSelectionOrder pins the base block layout: a build lays each
// block's rows in selection order, an insert puts its row last in its block
// and leaves every other row where it was, and a repartition sorts the
// inserted rows in.
func TestBlockRowsInSelectionOrder(t *testing.T) {
	tb := pageTable()
	n := table.TID(tb.Len())
	c := Build(tb, Config{})
	requireRowLayout(t, "built", c, n)
	rng := rand.New(rand.NewSource(74))
	before := slices.Clone(c.blocks.rowOf)
	for range 2000 {
		rank := []float64{rng.Float64(), rng.Float64()}
		tid := c.Insert(tb.SelRow(table.TID(rng.Intn(int(n))), nil), rank)
		if b := c.blocks.blocks[c.meta.BlockOf(rank)]; int(c.blocks.rowOf[tid]) != len(b.tids)-1 {
			t.Fatalf("inserted tuple %d is row %d of %d", tid, c.blocks.rowOf[tid], len(b.tids))
		}
	}
	if !slices.Equal(c.blocks.rowOf[:n], before) {
		t.Fatal("inserts moved built rows")
	}
	requireRowLayout(t, "inserted", c, n)
	c.Repartition()
	requireRowLayout(t, "repartitioned", c, table.TID(c.t.Len()))
}

// pageSpan counts the pages rows [lo, hi) of w bytes lie on.
func pageSpan(lo, hi, w int) int64 {
	if hi <= lo {
		return 0
	}
	return int64((hi*w-1)/pager.PageSize - lo*w/pager.PageSize + 1)
}

// TestMaintainedRunsChargeOnlyNeededPages grows a base block and a cell across
// page boundaries by inserts into a brand-new cell of the full cuboid, so the
// query on that cell needs the new rows alone: it is charged the pages they
// lie on, and none of the block's built pages. Deleting the rows on the
// block's last page takes that page off the query's bill, and a repartition
// keeps the answers. The oracle holds the kernel to the page-granular model
// after every step.
func TestMaintainedRunsChargeOnlyNeededPages(t *testing.T) {
	tb := pageTable()
	c := Build(tb, Config{})
	rng := rand.New(rand.NewSource(73))
	w := c.meta.rowBytes()

	// The block of tuple 0 takes the inserts, at the centre of its box. Its
	// built rows fill at least one page, which the query never needs.
	rank := tb.RankRow(0, nil)
	bid := c.meta.BlockOf(rank)
	box := c.meta.BlockBox(bid)
	for d := range rank {
		rank[d] = (box.Lo[d] + box.Hi[d]) / 2
	}
	if c.meta.BlockOf(rank) != bid {
		t.Fatalf("the centre of block %d lies in block %d", bid, c.meta.BlockOf(rank))
	}
	n0 := len(c.blocks.blocks[bid].tids)
	if n0*w < pager.PageSize {
		t.Fatalf("block %d holds %d bytes, less than a page", bid, n0*w)
	}

	// The inserts also extend the cell of the first selection value in the
	// one-dimension cuboid: enough of them to cross that cell's next page
	// boundary and the block's, and two pages' worth more, so the block's
	// last page holds inserted rows only.
	fresh := absentCombo(t, tb)
	cb := c.Cuboid([]int{0})
	cellKey := cb.cellKey(fresh[:1], cb.PseudoOf(bid))
	nc := int(cb.cells[cellKey].n)
	cross := func(n, w int) int { return (runPages(n*w)*pager.PageSize-n*w)/w + 1 }
	k := max(cross(n0, w), cross(nc, entryBytes)) + 2*pager.PageSize/w
	blockPages, cellPages := len(c.blocks.blocks[bid].pages), len(cb.cells[cellKey].pages)
	builtBlock := append([]pager.PageID(nil), c.blocks.blocks[bid].pages...)
	inserted := make([]table.TID, k)
	for i := range inserted {
		inserted[i] = c.Insert(fresh, rank)
	}
	blk := c.blocks.blocks[bid]
	if len(blk.pages) <= blockPages || len(cb.cells[cellKey].pages) <= cellPages {
		t.Fatalf("%d inserts left the block on %d pages (built %d), the cell on %d (built %d)",
			k, len(blk.pages), blockPages, len(cb.cells[cellKey].pages), cellPages)
	}
	for i, id := range builtBlock {
		if blk.pages[i] != id {
			t.Fatalf("page %d of the block moved from %d to %d", i, id, blk.pages[i])
		}
	}
	checkRunBytes(t, c)

	cond := map[int]int32{0: fresh[0], 1: fresh[1], 2: fresh[2]}
	q := Query{Cond: cond, F: ranking.Sum(0, 1), K: k + 1}
	query := func(what string, wantRows int, wantBlockReads int64) {
		t.Helper()
		ctr := stats.New()
		got, err := c.TopK(q, ctr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != wantRows {
			t.Fatalf("%s: %d results, want %d", what, len(got), wantRows)
		}
		if g := ctr.Reads(stats.StructBlockTab); g != wantBlockReads {
			t.Fatalf("%s: %d block-table reads, want %d", what, g, wantBlockReads)
		}
		// The brand-new cell holds the inserted entries alone, as overflow.
		if g, want := ctr.Reads(stats.StructCube), int64(runPages(k*entryBytes)); g != want {
			t.Fatalf("%s: %d cuboid reads, want %d", what, g, want)
		}
	}
	reads := pageSpan(n0, n0+k, w)
	if reads >= int64(len(blk.pages)) {
		t.Fatalf("the new rows lie on %d of the block's %d pages: no page to save", reads, len(blk.pages))
	}
	query("inserted", k, reads)
	checkAgainstReference(t, "inserted", c, rng)

	// Tombstone every inserted row that touches the block's last page.
	last := len(blk.pages) - 1
	cut := last * pager.PageSize / w
	for _, tid := range inserted[cut-n0:] {
		c.Delete(tid)
	}
	if pageSpan(n0, cut, w) >= reads {
		t.Fatalf("deleting rows %d.. left %d pages to read, was %d", cut, pageSpan(n0, cut, w), reads)
	}
	query("deleted", cut-n0, pageSpan(n0, cut, w))
	checkAgainstReference(t, "deleted", c, rng)

	c.Repartition()
	checkRunBytes(t, c)
	got, err := c.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(c.t, q))
	if len(got) != cut-n0 {
		t.Fatalf("repartitioned: %d results, want %d", len(got), cut-n0)
	}
	checkAgainstReference(t, "repartitioned", c, rng)
}

// TestBlockPageFaultReachesOnlyItsReaders scripts read faults on one page of a
// base block: the first page, which holds built rows only. A query that needs
// the page rides out a transient fault with a retry and the same answer, and
// aborts with a typed read failure — what the serving layer degrades on —
// when the fault persists. A query whose rows lie on the block's later pages
// never reads it: no retry, no failure.
func TestBlockPageFaultReachesOnlyItsReaders(t *testing.T) {
	tb := pageTable()
	c := Build(tb, Config{})
	w := c.meta.rowBytes()
	bid := c.meta.BlockOf(tb.RankRow(0, nil))
	blk := c.blocks.blocks[bid]
	if len(blk.tids)*w < pager.PageSize {
		t.Fatalf("block %d holds %d bytes, less than a page", bid, len(blk.tids)*w)
	}
	box := c.meta.BlockBox(bid)
	rank := []float64{(box.Lo[0] + box.Hi[0]) / 2, (box.Lo[1] + box.Hi[1]) / 2}
	fresh := absentCombo(t, tb)
	for len(c.blocks.blocks[bid].tids)*w <= len(blk.pages)*pager.PageSize {
		c.Insert(fresh, rank)
	}
	faulty := blk.pages[0]

	run := func(q Query, fails int) ([]Result, *stats.Counters, error) {
		c.blocks.store.SetFaultInjector(&pager.ScriptedFaults{FailFirst: map[pager.PageID]int{faulty: fails}})
		defer c.blocks.store.SetFaultInjector(nil)
		ctr := stats.New()
		res, err := governedTopK(c, q, ctr)
		return res, ctr, err
	}
	for _, tc := range []struct {
		q      Query
		needed bool
	}{
		// No predicate: every row of every block, the faulty page's included.
		{Query{Cond: map[int]int32{}, F: ranking.Sum(0, 1), K: c.t.Len()}, true},
		// The brand-new cell: the inserted rows alone, on the block's later pages.
		{Query{Cond: map[int]int32{0: fresh[0], 1: fresh[1], 2: fresh[2]}, F: ranking.Sum(0, 1), K: 100}, false},
	} {
		q, needed := tc.q, tc.needed
		want, clean, err := run(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ctr, err := run(q, 1)
		if err != nil {
			t.Fatalf("transient fault: %v", err)
		}
		sameResults(t, got, want)
		if wantRetries := map[bool]int64{true: 1, false: 0}[needed]; ctr.Retries != wantRetries {
			t.Fatalf("query on %v: %d retries, want %d", q.Cond, ctr.Retries, wantRetries)
		}
		if ctr.TotalReads() != clean.TotalReads() {
			t.Fatalf("query on %v: %d reads under a transient fault, %d without", q.Cond, ctr.TotalReads(), clean.TotalReads())
		}
		got, _, err = run(q, 1<<20)
		switch {
		case needed && !errors.Is(err, errs.ErrReadFailed):
			t.Fatalf("persistent fault on a needed page: err = %v, want ErrReadFailed", err)
		case !needed && err != nil:
			t.Fatalf("persistent fault on a page the query does not need: %v", err)
		case !needed:
			sameResults(t, got, want)
		}
	}
}
