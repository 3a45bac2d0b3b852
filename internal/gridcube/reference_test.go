package gridcube

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/heap"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// The reference implementation: chapter 3's four-step loop as it was written
// before the kernel was rebuilt — a pseudo-block cell fetched whole and
// filtered per base block, a map of wanted tids, one ranking vector per
// tuple, a box and a coordinate slice allocated per neighbour. This was the
// production loop; it stays here as the oracle the kernel's answers and peak
// heap are held to, over structures of its own: cells tid-major and base
// blocks as entry lists, both assembled from the relation and not from the
// cube's (bid, tid) runs and slabs. A block's entries are its rows in
// selection order, derived on their own: the tuples of the last build sorted
// by selection vector, then tid, and the ones inserted since after them, in
// insert order.
//
// Its reads are the letter: every run it fetches, it charges whole, and the
// kernel may read no more. Beside them it keeps the page-granular model the
// kernel is held to exactly, computed naively: a set of (run, page) pairs, a
// pair for each page a needed position of a run lies on. A needed position is
// a base-block row that survives the cell intersection and is not tombstoned
// (every row, for a query with no covering cuboid); in an uncompressed cell,
// the positions of the bid's sub-run in (bid, tid) order — or the one where
// an empty sub-run would begin — and every overflow position after the
// materialized ones. A compressed cell is one payload: all of its pages.
// Beside it, the same model over blocks whose rows are in tid order, the
// layout selection order replaced: what the kernel saves on it is counted.

type refBlockEntry struct {
	tid  table.TID
	rank []float64
	// tidRow is the entry's row were the block in tid order.
	tidRow int
}

// refCube is the old layout of one cube's content at one moment of its life.
type refCube struct {
	cells  map[*Cuboid]map[uint64][]Entry
	blocks map[BID][]refBlockEntry
}

func newRefCube(c *Cube) *refCube {
	rc := &refCube{cells: make(map[*Cuboid]map[uint64][]Entry), blocks: make(map[BID][]refBlockEntry)}
	for _, cb := range c.cuboids {
		rc.cells[cb] = make(map[uint64][]Entry)
	}
	for i := 0; i < c.t.Len(); i++ {
		tid := table.TID(i)
		rank := c.t.RankRow(tid, make([]float64, c.meta.R))
		bid := c.meta.BlockOf(rank)
		rc.blocks[bid] = append(rc.blocks[bid], refBlockEntry{tid: tid, rank: rank, tidRow: len(rc.blocks[bid])})
		for _, cb := range c.cuboids {
			vals := make([]int32, len(cb.dims))
			for j, d := range cb.dims {
				vals[j] = c.t.Sel(tid, d)
			}
			key := cb.cellKey(vals, refPseudoOf(c.meta, cb, bid))
			rc.cells[cb][key] = append(rc.cells[cb][key], Entry{TID: tid, BID: bid})
		}
	}
	built := table.TID(c.t.Len() - c.inserted)
	before := func(a, b table.TID) bool {
		if (a >= built) != (b >= built) {
			return b >= built
		}
		if a < built {
			sa, sb := c.t.SelRow(a, nil), c.t.SelRow(b, nil)
			for d := range sa {
				if sa[d] != sb[d] {
					return sa[d] < sb[d]
				}
			}
		}
		return a < b
	}
	for _, entries := range rc.blocks {
		sort.Slice(entries, func(i, j int) bool { return before(entries[i].tid, entries[j].tid) })
	}
	return rc
}

func refPseudoOf(m Meta, cb *Cuboid, bid BID) int {
	coords := divCoords(m, bid)
	pid := 0
	for _, c := range coords {
		pid = pid*cb.pbins + c/cb.sf
	}
	return pid
}

func refNeighbors(m Meta, bid BID, dst []BID) []BID {
	coords := divCoords(m, bid)
	work := make([]int, m.R)
	var rec func(d int, moved bool)
	rec = func(d int, moved bool) {
		if d == m.R {
			if moved {
				dst = append(dst, m.BlockOfCoords(work))
			}
			return
		}
		for delta := -1; delta <= 1; delta++ {
			c := coords[d] + delta
			if c < 0 || c >= m.Bins {
				continue
			}
			work[d] = c
			rec(d+1, moved || delta != 0)
		}
	}
	rec(0, false)
	return dst
}

// getPseudoBlock is the old get_pseudo_block: the whole cell, tid-ascending,
// for an access to every page the cube keeps it on.
func (rc *refCube) getPseudoBlock(cb *Cuboid, key uint64, buf *pager.Buffer, c *stats.Counters) []Entry {
	ref, ok := cb.cells[key]
	if !ok {
		return nil
	}
	if cb.compressed {
		buf.Read(ref.pages[0], c)
	} else {
		for _, id := range ref.pages {
			buf.Touch(id, c)
		}
	}
	return rc.cells[cb][key]
}

// getBlock is the old get_base_block: the whole block, every page of it.
func (rc *refCube) getBlock(bt *BlockTable, bid BID, buf *pager.Buffer, c *stats.Counters) []refBlockEntry {
	entries, ok := rc.blocks[bid]
	if !ok {
		return nil
	}
	for _, id := range bt.blocks[bid].pages {
		buf.Touch(id, c)
	}
	return entries
}

// refPage is one page of one run in the page-granular model: a cell's (its
// cuboid and key) or a base block's (cb nil, key its bid), and the page's index
// in the run.
type refPage struct {
	cb   *Cuboid
	key  uint64
	page int
}

type refExec struct {
	cube     *Cube
	rc       *refCube
	cover    []*Cuboid
	condVals [][]int32
	f        ranking.Func
	ctr      *stats.Counters

	blockBuf *pager.Buffer
	cubeBufs []*pager.Buffer
	topk     *heap.Bounded[Result]

	model, tidOrder map[refPage]bool
}

// need puts in the model the pages that position p of a run of w-byte rows
// lies on.
func (e *refExec) need(cb *Cuboid, key uint64, p, w int) {
	needIn(e.model, cb, key, p, w)
}

func needIn(model map[refPage]bool, cb *Cuboid, key uint64, p, w int) {
	model[refPage{cb, key, p * w / pager.PageSize}] = true
	model[refPage{cb, key, ((p+1)*w - 1) / pager.PageSize}] = true
}

// needRow models the evaluate step's pages of one needed row of block bid,
// in both layouts.
func (e *refExec) needRow(bid BID, p int, be refBlockEntry) {
	w := e.cube.meta.rowBytes()
	e.need(nil, uint64(bid), p, w)
	needIn(e.tidOrder, nil, uint64(bid), be.tidRow, w)
}

// modelReads counts the pages of one structure in a model.
func modelReads(model map[refPage]bool, st stats.Structure) int64 {
	n := int64(0)
	for pg := range model {
		if pg.cb != nil && st == stats.StructCube || pg.cb == nil && st == stats.StructBlockTab {
			n++
		}
	}
	return n
}

// needCell models the retrieve step's pages of cell key for block bid, from
// the cell's entries in tid order: the first n were materialized, the rest
// are overflow.
func (e *refExec) needCell(cb *Cuboid, key uint64, entries []Entry, bid BID) {
	ref, ok := cb.cells[key]
	if !ok {
		return
	}
	m := int(ref.n)
	if cb.compressed {
		size := int(ref.bytes) + (len(entries)-m)*entryBytes
		for p := 0; p*entryBytes < size; p++ {
			e.need(cb, key, p, entryBytes)
		}
		return
	}
	lo, hi := 0, 0
	for _, en := range entries[:m] {
		if en.BID < bid {
			lo++
		}
		if en.BID <= bid {
			hi++
		}
	}
	for p := lo; p < hi; p++ {
		e.need(cb, key, p, entryBytes)
	}
	if lo == hi && m > 0 {
		e.need(cb, key, min(lo, m-1), entryBytes)
	}
	for p := m; p < len(entries); p++ {
		e.need(cb, key, p, entryBytes)
	}
}

func refTopK(c *Cube, rc *refCube, q Query, ctr *stats.Counters) ([]Result, *refExec) {
	condDims := make([]int, 0, len(q.Cond))
	for d := range q.Cond {
		condDims = append(condDims, d)
	}
	sort.Ints(condDims)
	cover, err := new(coverPlan).find(c, condDims)
	if err != nil {
		panic(err)
	}
	e := &refExec{cube: c, rc: rc, cover: cover, f: q.F, ctr: ctr,
		model: make(map[refPage]bool), tidOrder: make(map[refPage]bool),
		blockBuf: pager.NewBuffer(c.blocks.store), topk: heap.NewBounded[Result](q.K, core.WorseResult)}
	for _, cb := range cover {
		vals := make([]int32, len(cb.dims))
		for j, d := range cb.dims {
			vals[j] = q.Cond[d]
		}
		e.condVals = append(e.condVals, vals)
		e.cubeBufs = append(e.cubeBufs, pager.NewBuffer(cb.store))
	}
	if min, ok := q.F.(ranking.Minimizer); ok && ranking.IsConvexFunc(q.F) {
		e.neighborhoodSearch(min)
	} else {
		e.exhaustiveSearch()
	}
	return e.topk.Sorted(), e
}

// scoredBlock is a base block queued at its lower bound.
type scoredBlock struct {
	bid   BID
	bound float64
}

// lessBlock is the search's block order, (bound, bid).
func lessBlock(a, b scoredBlock) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.bid < b.bid
}

func (e *refExec) done(unseen float64) bool {
	return e.topk.Full() && e.topk.Worst().Score <= unseen
}

func (e *refExec) neighborhoodSearch(min ranking.Minimizer) {
	meta := e.cube.meta
	domain := ranking.NewBox(make([]float64, meta.R), make([]float64, meta.R))
	meta.domainInto(domain)
	start := meta.BlockOf(min.ArgMin(domain))

	h := heap.New[scoredBlock](lessBlock)
	inserted := map[BID]bool{start: true}
	h.Push(scoredBlock{bid: start, bound: e.f.LowerBound(meta.BlockBox(start))})

	var neighbors []BID
	for h.Len() > 0 {
		e.ctr.ObserveHeap(h.Len())
		top := h.Pop()
		if e.done(top.bound) {
			return
		}
		e.processBlock(top.bid)
		neighbors = refNeighbors(meta, top.bid, neighbors[:0])
		for _, nb := range neighbors {
			if inserted[nb] {
				continue
			}
			inserted[nb] = true
			h.Push(scoredBlock{bid: nb, bound: e.f.LowerBound(meta.BlockBox(nb))})
		}
	}
}

func (e *refExec) exhaustiveSearch() {
	meta := e.cube.meta
	h := heap.New[scoredBlock](lessBlock)
	for bid := range e.rc.blocks {
		bound := e.f.LowerBound(meta.BlockBox(bid))
		if !math.IsInf(bound, 1) {
			h.Push(scoredBlock{bid: bid, bound: bound})
		}
	}
	for h.Len() > 0 {
		e.ctr.ObserveHeap(h.Len())
		top := h.Pop()
		if e.done(top.bound) {
			return
		}
		e.processBlock(top.bid)
	}
}

func (e *refExec) processBlock(bid BID) {
	if len(e.cover) == 0 {
		for p, be := range e.rc.getBlock(e.cube.blocks, bid, e.blockBuf, e.ctr) {
			e.needRow(bid, p, be)
			if !e.cube.tombstones[be.tid] {
				e.offer(be)
			}
		}
		return
	}
	var candidates []table.TID
	for i, cb := range e.cover {
		key := cb.cellKey(e.condVals[i], refPseudoOf(e.cube.meta, cb, bid))
		entries := e.rc.getPseudoBlock(cb, key, e.cubeBufs[i], e.ctr)
		e.needCell(cb, key, entries, bid)
		var tids []table.TID
		for _, en := range entries {
			if en.BID == bid {
				tids = append(tids, en.TID)
			}
		}
		if i == 0 {
			candidates = tids
		} else {
			candidates = core.IntersectSorted(candidates, tids)
		}
		if len(candidates) == 0 {
			return
		}
	}

	want := make(map[table.TID]bool, len(candidates))
	for _, tid := range candidates {
		want[tid] = true
	}
	for p, be := range e.rc.getBlock(e.cube.blocks, bid, e.blockBuf, e.ctr) {
		if want[be.tid] && !e.cube.tombstones[be.tid] {
			e.needRow(bid, p, be)
			e.offer(be)
		}
	}
}

// offer scores one tuple of a base block; +Inf is no answer.
func (e *refExec) offer(be refBlockEntry) {
	if score := e.f.Eval(be.rank); !math.IsInf(score, 1) {
		e.topk.Offer(Result{TID: be.tid, Score: score})
	}
}

// refFuncs draws one function of each family over r ranking dimensions.
func refFuncs(rng *rand.Rand, r int) map[string]ranking.Func {
	attrs := make([]int, r)
	w, p := make([]float64, r), make([]float64, r)
	rest := make([]ranking.Expr, 0, r-1)
	for d := range attrs {
		attrs[d] = d
		w[d], p[d] = rng.Float64(), rng.Float64()
		if d > 0 {
			rest = append(rest, ranking.Var(d))
		}
	}
	return map[string]ranking.Func{
		"linear": ranking.Linear(attrs, w),
		"sqdist": ranking.SqDist(attrs, p),
		"general": ranking.General(ranking.Sqr(ranking.Sub(
			ranking.Scale(0.5+rng.Float64(), ranking.Var(0)), ranking.Add(rest...)))),
		"constrained": ranking.Constrained(ranking.Linear(attrs, w), 0, 0.3, 0.45),
	}
}

// absentCombo finds selection values no tuple of tb carries together, so the
// cuboid over all its dimensions has no cell for them.
func absentCombo(t *testing.T, tb *table.Table) []int32 {
	t.Helper()
	s, card := tb.Schema().S(), tb.Schema().SelCard
	present := make(map[string]bool)
	for i := 0; i < tb.Len(); i++ {
		present[fmt.Sprint(tb.SelRow(table.TID(i), make([]int32, s)))] = true
	}
	vals := make([]int32, s)
	for {
		if !present[fmt.Sprint(vals)] {
			return vals
		}
		d := s - 1
		for ; d >= 0 && int(vals[d]) == card[d]-1; d-- {
			vals[d] = 0
		}
		if d < 0 {
			t.Fatal("every value combination is present; no absent cell to query")
		}
		vals[d]++
	}
}

// checkAgainstReference replays one request mix on the kernel and on the old
// loop and holds the kernel, request by request, to the same results and peak
// heap, to no more reads than the letter and to exactly the page-granular
// model's, per structure. It returns, per structure, how many reads the
// kernel saved on the letter over the whole mix, and how many block-table
// reads it saved on the tid-ordered model.
func checkAgainstReference(t *testing.T, what string, c *Cube, rng *rand.Rand) (map[stats.Structure]int64, int64) {
	t.Helper()
	rc := newRefCube(c)
	tb := c.t
	s := tb.Schema().S()
	some := tb.SelRow(table.TID(rng.Intn(tb.Len())), make([]int32, s))
	// "hot" selects the most frequent value under a zipfian draw: the widest
	// cells of the one-dimension cuboid.
	conds := map[string]core.Cond{"empty": {}, "absent": {}, "hot": {0: 0}}
	for d, v := range absentCombo(t, tb) {
		conds["absent"][d] = v
	}
	for n := 1; n <= s; n++ {
		cond := core.Cond{}
		for _, d := range rng.Perm(s)[:n] {
			cond[d] = some[d]
		}
		conds[fmt.Sprintf("%d-dim", n)] = cond
	}
	saved, onTidOrder := make(map[stats.Structure]int64), int64(0)
	for fname, f := range refFuncs(rng, c.meta.R) {
		for cname, cond := range conds {
			for _, k := range []int{1, 10, 100, tb.Len() + 1} {
				q := Query{Cond: cond, F: f, K: k}
				name := fmt.Sprintf("%s %s/%s/k=%d", what, cname, fname, k)
				gotCtr, letterCtr := stats.New(), stats.New()
				got, err := c.TopK(q, gotCtr)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, model := refTopK(c, rc, q, letterCtr)
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, reference %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: result %d = %v, reference %v", name, i, got[i], want[i])
					}
				}
				for _, st := range []stats.Structure{stats.StructCube, stats.StructBlockTab, stats.StructTable} {
					g, letter, m := gotCtr.Reads(st), letterCtr.Reads(st), modelReads(model.model, st)
					if g > letter {
						t.Fatalf("%s: %s reads = %d, more than the letter's %d", name, st, g, letter)
					}
					if g != m {
						t.Fatalf("%s: %s reads = %d, page-granular model %d", name, st, g, m)
					}
					saved[st] += letter - g
				}
				onTidOrder += modelReads(model.tidOrder, stats.StructBlockTab) - gotCtr.Reads(stats.StructBlockTab)
				if gotCtr.PeakHeap != letterCtr.PeakHeap {
					t.Fatalf("%s: peak heap = %d, reference %d", name, gotCtr.PeakHeap, letterCtr.PeakHeap)
				}
				if cname == "absent" && len(got) != 0 {
					t.Fatalf("%s: %d results from a cell that does not exist", name, len(got))
				}
			}
		}
	}
	return saved, onTidOrder
}

// maintain runs 300 inserts, every tenth into the brand-new cell of values
// fresh, and 200 deletes on c.
func maintain(c *Cube, fresh []int32, rng *rand.Rand) {
	s, r, rows := c.t.Schema().S(), c.meta.R, c.t.Len()
	sel, rank := make([]int32, s), make([]float64, r)
	for i := 0; i < 300; i++ {
		copy(sel, fresh) // every tenth insert opens or extends a brand-new cell
		if i%10 != 0 {
			sel = c.t.SelRow(table.TID(rng.Intn(rows)), sel)
		}
		for d := range rank {
			rank[d] = rng.Float64()
		}
		c.Insert(sel, rank)
	}
	for deleted := 0; deleted < 200; {
		if c.Delete(table.TID(rng.Intn(c.t.Len()))) {
			deleted++
		}
	}
}

// TestKernelMatchesReference runs the differential over the layouts the
// kernel distinguishes — full cube and fragments (a cover of several cuboids,
// hence the intersection), cells as (bid, tid) runs and delta-compressed —
// with two and three ranking dimensions, zipfian and uniform selection
// values; fresh, after maintenance has left overflow entries in old and in
// brand-new cells beside tombstones, and after a repartition folded them in.
// Its base blocks of 50 tuples each fit on one page, where page-granular
// reads are the letter's; the multi-page subtests give blocks and hot cells
// several pages each and require the kernel to save reads on the letter, and
// block pages on a layout of rows in tid order.
func TestKernelMatchesReference(t *testing.T) {
	type config struct {
		multi           bool
		rows, blockSize int
		frags           []int
		zipfs           []float64
	}
	for _, cfg := range []config{
		{rows: 6000, blockSize: 50, frags: []int{0, 1, 2}, zipfs: []float64{0, 1.2}},
		{multi: true, rows: 20000, blockSize: 1000, frags: []int{0, 1}, zipfs: []float64{1.2}},
	} {
		for _, frag := range cfg.frags {
			for _, packed := range []bool{false, true} {
				for _, r := range []int{2, 3} {
					for _, zipf := range cfg.zipfs {
						name := fmt.Sprintf("F=%d/packed=%v/R=%d/zipf=%v", frag, packed, r, zipf)
						if cfg.multi {
							name = "pages=multi/" + name
						}
						t.Run(name, func(t *testing.T) {
							const s, card = 3, 12
							tb := table.Generate(table.GenSpec{T: cfg.rows, S: s, R: r, Card: card, SelZipf: zipf, Seed: 61})
							fresh := absentCombo(t, tb)
							c := Build(tb, Config{BlockSize: cfg.blockSize, FragmentSize: frag, CompressLists: packed})
							if cfg.multi {
								requireMultiPage(t, c)
							}
							rng := rand.New(rand.NewSource(62))
							phase := func(what string) {
								saved, onTidOrder := checkAgainstReference(t, what, c, rng)
								if !cfg.multi {
									return
								}
								if saved[stats.StructBlockTab] <= 0 {
									t.Fatalf("%s: the kernel read every block page the letter did", what)
								}
								if !packed && saved[stats.StructCube] <= 0 {
									t.Fatalf("%s: the kernel read every cell page the letter did", what)
								}
								if onTidOrder <= 0 {
									t.Fatalf("%s: rows in selection order saved %d block pages on tid order", what, onTidOrder)
								}
							}
							phase("built")
							maintain(c, fresh, rng)
							phase("maintained")
							c.Repartition()
							phase("repartitioned")
						})
					}
				}
			}
		}
	}
}

// requireMultiPage fails unless some base block and, in an uncompressed
// cube, some cell spans at least two pages.
func requireMultiPage(t *testing.T, c *Cube) {
	t.Helper()
	blocks, cells := 0, 0
	for _, b := range c.blocks.blocks {
		blocks = max(blocks, len(b.pages))
	}
	for _, cb := range c.cuboids {
		for _, ref := range cb.cells {
			if !cb.compressed {
				cells = max(cells, len(ref.pages))
			}
		}
	}
	if blocks < 2 || (cells < 2 && !c.cfg.CompressLists) {
		t.Fatalf("widest block %d pages, widest cell %d: want at least two each", blocks, cells)
	}
}
