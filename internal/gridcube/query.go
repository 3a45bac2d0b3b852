package gridcube

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/heap"
	"rankcube/internal/pager"
	"rankcube/internal/poison"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Query is a multi-dimensional top-k query (thesis §1.2.1): equality
// selections over selection dimensions plus an ad hoc ranking function over
// ranking dimensions, ascending scores preferred.
type Query struct {
	// Cond maps selection-dimension positions to required values.
	Cond map[int]int32
	// F is the ranking function.
	F ranking.Func
	// K is the number of results requested.
	K int
}

// Result is one scored tuple (shared with the other engines).
type Result = core.Result

// coverPlan is the storage of one cover selection, kept by a query's
// execution state from one query to the next.
type coverPlan struct {
	maximal, cover []*Cuboid
	open           []bool // open[i]: the query's i-th dimension is not covered yet
}

// find returns the cover of the ascending, distinct dims. The cube keeps its
// cuboids widest first (Cube.order), so a cuboid's strict supersets come
// before it: it is maximal unless one of the maximal cuboids kept so far
// contains it. The greedy step takes, among the maximal cuboids, the first in
// that order that covers the most dimensions still open.
func (p *coverPlan) find(c *Cube, dims []int) ([]*Cuboid, error) {
	p.maximal, p.cover = p.maximal[:0], p.cover[:0]
	for _, cb := range c.order {
		if !subset(cb.dims, dims) {
			continue
		}
		dominated := false
		for _, m := range p.maximal {
			if len(m.dims) > len(cb.dims) && subset(cb.dims, m.dims) {
				dominated = true
				break
			}
		}
		if !dominated {
			p.maximal = append(p.maximal, cb)
		}
	}
	p.open = p.open[:0]
	for range dims {
		p.open = append(p.open, true)
	}
	for left := len(dims); left > 0; {
		best, gain := -1, 0
		for i, cb := range p.maximal {
			if g := p.close(cb.dims, dims, false); g > gain {
				best, gain = i, g
			}
		}
		if best < 0 {
			var rest []int
			for i, d := range dims {
				if p.open[i] {
					rest = append(rest, d)
				}
			}
			return nil, fmt.Errorf("gridcube: dimensions %v not covered by materialized fragments: %w", rest, errs.ErrInvalidArgument)
		}
		p.cover = append(p.cover, p.maximal[best])
		left -= p.close(p.maximal[best].dims, dims, true)
	}
	return p.cover, nil
}

// close counts the dimensions of sub, a subset of dims (both ascending), that
// are still open, and with commit marks them covered.
func (p *coverPlan) close(sub, dims []int, commit bool) int {
	n, j := 0, 0
	for _, d := range sub {
		for dims[j] != d {
			j++
		}
		if p.open[j] {
			n++
			p.open[j] = !commit
		}
	}
	return n
}

// subset reports whether every element of the ascending sub is in the
// ascending sup.
func subset(sub, sup []int) bool {
	j := 0
	for _, d := range sub {
		for j < len(sup) && sup[j] < d {
			j++
		}
		if j == len(sup) || sup[j] != d {
			return false
		}
		j++
	}
	return true
}

// TopK answers q with the progressive algorithm of §3.3 (and §3.4.2 when
// the query spans multiple fragments): locate the most promising base block,
// retrieve its cell lists (intersecting across covering cuboids), fetch and
// evaluate candidate tuples, and expand to neighboring blocks until the kth
// score is no worse than the best unseen block's bound.
func (c *Cube) TopK(q Query, ctr *stats.Counters) ([]Result, error) {
	if q.K <= 0 {
		return nil, nil
	}
	e := execs.Get().(*gridExec)
	defer e.release()
	endPlan := ctr.StartSpan("plan")
	ok, err := e.reset(c, q, ctr)
	endPlan()
	if !ok {
		return nil, err
	}

	defer ctr.StartSpan("search")()
	if ranking.IsConvexFunc(q.F) {
		if min, ok := q.F.(ranking.Minimizer); ok {
			e.neighborhoodSearch(min)
			return e.topk.Sorted(), nil
		}
	}
	e.exhaustiveSearch()
	return e.topk.Sorted(), nil
}

// gridExec is one query's execution state. Everything the block loop needs
// from one block to the next — the block queue, the bounding box, the bound
// function, the cells and their buffers, the tid lists, the top k — is owned
// here and kept, in execs, from one query to the next: once it has grown to a
// query's width, a query allocates its answer and, under a convex function,
// the point ArgMin returns.
type gridExec struct {
	cube  *Cube
	ctr   *stats.Counters
	topk  core.TopK
	bound ranking.Bound // f over all R dimensions: blocks' boxes, rows
	all   []int         // 0, …, R−1

	plan     coverPlan
	condDims []int
	scans    []cellScan // one per covering cuboid, in cover order
	blockBuf pager.Buffer

	blocks     heap.Keyed[struct{}] // by (bound, bid)
	inserted   bidSet
	neighbors  []BID
	box        ranking.Box // the block being bounded
	cand, tids []table.TID // a block's surviving candidates; one cuboid's list
	marked     []uint64    // the pages of the block's run its needed rows lie on
}

// execs holds the execution states of finished queries.
var execs = sync.Pool{New: func() any { return new(gridExec) }}

// reset readies e for q on c, whatever query it served last and however that
// one ended: it plans the cover, rebinds the buffers, sizes the box and binds
// the function from c's current Meta, which a Repartition may have changed
// (neighborhoodSearch sizes the pushed-block bitset from it). It reports
// false when the answer is known to be empty (or err) without a search.
func (e *gridExec) reset(c *Cube, q Query, ctr *stats.Counters) (bool, error) {
	if poison.On {
		e.poison()
	}
	e.cube, e.ctr = c, ctr
	e.topk.Reset(q.K)
	e.condDims = e.condDims[:0]
	for d := range q.Cond {
		e.condDims = append(e.condDims, d)
	}
	slices.Sort(e.condDims)
	cover, err := e.plan.find(c, e.condDims)
	if err != nil {
		return false, err
	}
	if n := len(cover); cap(e.scans) < n {
		e.scans = append(e.scans[:cap(e.scans)], make([]cellScan, n-cap(e.scans))...)
	}
	e.scans = e.scans[:len(cover)]
	// A value outside its dimension's domain selects nothing, and its
	// mixed-radix cell key would name another cell: the answer is empty, read
	// for nothing.
	for i, cb := range cover {
		s := &e.scans[i]
		s.cb, s.pid, s.extra = cb, -1, nil
		s.buf.Reset(cb.store)
		s.vals = s.vals[:0]
		for j, d := range cb.dims {
			v := q.Cond[d]
			if v < 0 || int(v) >= cb.cards[j] {
				return false, nil
			}
			s.vals = append(s.vals, v)
		}
	}
	e.blockBuf.Reset(c.blocks.store)
	r := c.meta.R
	e.box.Lo, e.box.Hi = slices.Grow(e.box.Lo[:0], r)[:r], slices.Grow(e.box.Hi[:0], r)[:r]
	e.all = slices.Grow(e.all[:0], r)[:r]
	for d := range e.all {
		e.all[d] = d
	}
	c.meta.domainInto(e.box)
	e.bound.Bind(q.F, e.all, e.box)
	e.blocks.Reset()
	e.cand, e.tids = e.cand[:0], e.tids[:0]
	clear(e.marked) // an aborted query may have left its block's marks
	return true, nil
}

// poison fills e's storage with sentinels in a poison build (package
// poison): scores NaN, TIDs and BIDs out of range, every bit set, and every
// cell scan on pseudo block 0 with a found cell of garbage.
func (e *gridExec) poison() {
	poison.Fill(e.condDims, poison.TID)
	poison.Fill(e.neighbors, BID(poison.TID))
	poison.Fill(e.cand, table.TID(poison.TID))
	poison.Fill(e.tids, table.TID(poison.TID))
	poison.Fill(e.marked, ^uint64(0))
	poison.Fill(e.inserted, ^uint64(0))
	poison.Fill(e.box.Lo, poison.Score)
	poison.Fill(e.box.Hi, poison.Score)
	scans := e.scans[:cap(e.scans)]
	for i := range scans {
		s := &scans[i]
		poison.Fill(s.vals, poison.TID)
		s.pid, s.found = 0, true
		s.ref = cellRef{off: poison.TID, n: poison.TID, bytes: poison.TID}
		s.extra = garbageEntries
	}
}

// garbageEntries is the overflow list of a poisoned cell scan.
var garbageEntries = []Entry{{TID: poison.TID, BID: poison.TID}}

// release drops e's references to the query's cube and hands e back to
// execs; TopK defers it, so it runs however the query ends.
func (e *gridExec) release() {
	for i := range e.scans {
		e.scans[i].cb, e.scans[i].extra = nil, nil
		e.scans[i].buf.Reset(nil)
	}
	e.blockBuf.Reset(nil)
	clear(e.plan.maximal)
	clear(e.plan.cover)
	e.bound.Bind(nil, nil, ranking.Box{})
	e.cube, e.ctr = nil, nil
	execs.Put(e)
}

// bidSet is a bitset over the base blocks.
type bidSet []uint64

// add puts b in the set and reports whether it was missing.
func (s bidSet) add(b BID) bool {
	word, bit := &s[b>>6], uint64(1)<<(b&63)
	fresh := *word&bit == 0
	*word |= bit
	return fresh
}

// done reports whether the stop condition Sk ≤ Sunseen holds.
func (e *gridExec) done(unseen float64) bool {
	return e.topk.Full() && e.topk.Worst().Score <= unseen
}

// blockBound computes f's lower bound over base block bid.
func (e *gridExec) blockBound(bid BID) float64 {
	e.cube.meta.boxInto(bid, e.box)
	return e.bound.Rect(e.box.Lo, e.box.Hi)
}

// neighborhoodSearch implements the convex-function search of §3.3.2: start
// at the block containing the function minimum and expand through the
// neighbor list H ordered by block lower bounds (Lemma 1).
func (e *gridExec) neighborhoodSearch(min ranking.Minimizer) {
	meta := &e.cube.meta
	meta.domainInto(e.box)
	start := meta.BlockOf(min.ArgMin(e.box))

	words := (meta.NumBlocks() + 63) / 64
	if cap(e.inserted) < words {
		e.inserted = make(bidSet, words)
	}
	e.inserted = e.inserted[:words]
	clear(e.inserted)
	e.inserted.add(start)
	h := &e.blocks
	h.Push(heap.Item[struct{}]{Key: e.blockBound(start), Tie: uint64(start)})

	for len(*h) > 0 {
		e.ctr.ObserveHeap(len(*h))
		top := h.Pop()
		if e.done(top.Key) {
			return
		}
		bid := BID(top.Tie)
		e.processBlock(bid)
		e.neighbors = meta.Neighbors(bid, e.neighbors[:0])
		for _, nb := range e.neighbors {
			if e.inserted.add(nb) {
				h.Push(heap.Item[struct{}]{Key: e.blockBound(nb), Tie: uint64(nb)})
			}
		}
	}
}

// exhaustiveSearch is the fallback for functions without a declared convex
// structure: every occupied base block is ranked by its lower bound and
// processed best-first. Correct for any lower-boundable function (§3.6.1's
// ad hoc case with one convex sub-domain).
func (e *gridExec) exhaustiveSearch() {
	blocks := e.cube.blocks.blocks
	for bid := range blocks {
		if len(blocks[bid].tids) == 0 {
			continue
		}
		if bound := e.blockBound(BID(bid)); !math.IsInf(bound, 1) {
			e.blocks = append(e.blocks, heap.Item[struct{}]{Key: bound, Tie: uint64(bid)})
		}
	}
	h := &e.blocks
	h.Heapify()
	for len(*h) > 0 {
		e.ctr.ObserveHeap(len(*h))
		top := h.Pop()
		if e.done(top.Key) {
			return
		}
		e.processBlock(BID(top.Tie))
	}
}

// processBlock runs the retrieve and evaluate steps of §3.3.2 for one base
// block: fetch the block's tids from the covering cells, intersect, then
// score the surviving tuples, fetching from the base block (get_base_block,
// §3.3.1) the pages that hold them. Every cell list is tid-ascending, so the
// intersection is a merge; the block table's row table locates a survivor's
// row.
func (e *gridExec) processBlock(bid BID) {
	var cand []table.TID
	for i := range e.scans {
		if i == 0 {
			e.cand = e.scans[i].blockTIDs(bid, e.ctr, e.cand[:0])
			cand = e.cand
		} else {
			e.tids = e.scans[i].blockTIDs(bid, e.ctr, e.tids[:0])
			cand = core.IntersectSorted(cand, e.tids)
		}
		if len(cand) == 0 {
			return
		}
	}

	blk, w := &e.cube.blocks.blocks[bid], e.cube.meta.rowBytes()
	// An unconditioned query (no covering cuboids) needs every tuple of the
	// block: the whole run.
	if len(e.scans) == 0 {
		touchRows(blk.pages, w, 0, len(blk.tids), &e.blockBuf, e.ctr)
		for i, tid := range blk.tids {
			if e.live(tid) {
				e.offer(blk, i)
			}
		}
		return
	}
	// A surviving candidate that is not tombstoned is a needed row: its pages
	// are charged, and no other page of the block is. Candidates ascend by tid,
	// rows by selection vector, so the pages are marked first and then charged
	// ascending, each once.
	words := (len(blk.pages) + 63) / 64
	if len(e.marked) < words {
		e.marked = make([]uint64, words)
	}
	rowOf := e.cube.blocks.rowOf
	for _, tid := range cand {
		if !e.live(tid) {
			continue
		}
		row := int(rowOf[tid])
		for pg := row * w / pager.PageSize; pg <= ((row+1)*w-1)/pager.PageSize; pg++ {
			e.marked[pg>>6] |= 1 << (pg & 63)
		}
	}
	for i, word := range e.marked[:words] {
		for ; word != 0; word &= word - 1 {
			e.blockBuf.Touch(blk.pages[i<<6|bits.TrailingZeros64(word)], e.ctr)
		}
		e.marked[i] = 0
	}
	for _, tid := range cand {
		if e.live(tid) {
			e.offer(blk, int(rowOf[tid]))
		}
	}
}

// live reports whether tid is not tombstoned.
func (e *gridExec) live(tid table.TID) bool {
	return len(e.cube.tombstones) == 0 || !e.cube.tombstones[tid]
}

// offer scores the i-th tuple of blk. A +Inf score (outside a constrained
// function's band) is no answer.
func (e *gridExec) offer(blk *block, i int) {
	r := e.cube.meta.R
	if score := e.bound.Point(blk.ranks[i*r : (i+1)*r]); !math.IsInf(score, 1) {
		e.topk.Offer(Result{TID: blk.tids[i], Score: score})
	}
}

// cellScan is one covering cuboid's part of a query: the condition's values
// on the cuboid's dimensions, the buffer its pages are charged through, and
// the cell of the pseudo block the search is in. Neighbouring base blocks
// mostly share a pseudo block, so the cell and its overflow list are looked
// up again only when the pseudo block changes.
type cellScan struct {
	cb    *Cuboid
	vals  []int32 // aligned with cb.dims
	buf   pager.Buffer
	pid   int // the pseudo block of ref and extra; -1 before the first block
	ref   cellRef
	found bool
	extra []Entry
}

// blockTIDs is get_pseudo_block narrowed to one base block, the retrieve
// step's unit of work: it appends to dst, ascending, the tids of bid's tuples
// in the cell that holds them. A compressed cell is one payload, read whole.
// An uncompressed cell charges the pages its bid sub-run overlaps — an empty
// sub-run the one page where it would begin, where the search learns it is
// empty — and the pages of its overflow entries, which are in tid order and
// cannot be skipped by bid.
func (s *cellScan) blockTIDs(bid BID, c *stats.Counters, dst []table.TID) []table.TID {
	cb := s.cb
	if pid := cb.PseudoOf(bid); pid != s.pid {
		key := cb.cellKey(s.vals, pid)
		s.pid = pid
		s.ref, s.found = cb.cells[key]
		s.extra = cb.extra[key]
	}
	if !s.found {
		return dst
	}
	ref, extra := &s.ref, s.extra
	if cb.compressed {
		dst = decodeBlock(s.buf.Read(ref.pages[0], c), int(ref.n), bid, dst)
	} else {
		run := cb.data[ref.off : ref.off+ref.n]
		// The bid's sub-run starts at the first entry not below bid.
		lo, hi := 0, len(run)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); run[m].BID < bid {
				lo = m + 1
			} else {
				hi = m
			}
		}
		for hi = lo; hi < len(run) && run[hi].BID == bid; hi++ {
			dst = append(dst, run[hi].TID)
		}
		if len(run) > 0 {
			at := min(lo, len(run)-1)
			touchRows(ref.pages, entryBytes, at, max(hi, at+1), &s.buf, c)
		}
		if len(extra) > 0 {
			touchRows(ref.pages, entryBytes, len(run), len(run)+len(extra), &s.buf, c)
		}
	}
	// Fresh tids are larger than materialized ones, so dst stays ascending.
	for _, en := range extra {
		if en.BID == bid {
			dst = append(dst, en.TID)
		}
	}
	return dst
}
