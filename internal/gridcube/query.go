package gridcube

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/heap"
	"rankcube/internal/pager"
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

// CoveringCuboids selects the cuboids answering a query over the given
// selection dimensions with the minmax criterion of §3.4.2: candidate
// cuboids contained in the query dimensions, maximal among those, then a
// minimal covering subset (greedy set cover). It returns an error when the
// materialized fragments cannot cover the query.
func (c *Cube) CoveringCuboids(dims []int) ([]*Cuboid, error) {
	need := make(map[int]bool, len(dims))
	for _, d := range dims {
		need[d] = true
	}
	var candidates []*Cuboid
	for _, cb := range c.cuboids {
		inside := true
		for _, d := range cb.dims {
			if !need[d] {
				inside = false
				break
			}
		}
		if inside {
			candidates = append(candidates, cb)
		}
	}
	// Maximum step: drop cuboids strictly contained in another candidate.
	maximal := candidates[:0]
	for _, cb := range candidates {
		dominated := false
		for _, other := range candidates {
			if other != cb && len(other.dims) > len(cb.dims) && contains(other.dims, cb.dims) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, cb)
		}
	}
	// Minimum step: greedy set cover over the query dimensions.
	sort.Slice(maximal, func(a, b int) bool {
		if len(maximal[a].dims) != len(maximal[b].dims) {
			return len(maximal[a].dims) > len(maximal[b].dims)
		}
		return fmt.Sprint(maximal[a].dims) < fmt.Sprint(maximal[b].dims)
	})
	uncovered := make(map[int]bool, len(dims))
	for _, d := range dims {
		uncovered[d] = true
	}
	var cover []*Cuboid
	for len(uncovered) > 0 {
		best, gain := -1, 0
		for i, cb := range maximal {
			g := 0
			for _, d := range cb.dims {
				if uncovered[d] {
					g++
				}
			}
			if g > gain {
				best, gain = i, g
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("gridcube: dimensions %v not covered by materialized fragments: %w", remaining(uncovered), errs.ErrInvalidArgument)
		}
		cover = append(cover, maximal[best])
		for _, d := range maximal[best].dims {
			delete(uncovered, d)
		}
	}
	return cover, nil
}

func contains(sup, sub []int) bool {
	set := make(map[int]bool, len(sup))
	for _, d := range sup {
		set[d] = true
	}
	for _, d := range sub {
		if !set[d] {
			return false
		}
	}
	return true
}

func remaining(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
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
	endPlan := ctr.StartSpan("plan")
	condDims := make([]int, 0, len(q.Cond))
	for d := range q.Cond {
		condDims = append(condDims, d)
	}
	sort.Ints(condDims)
	cover, err := c.CoveringCuboids(condDims)
	if err != nil {
		endPlan()
		return nil, err
	}
	// Per-cuboid selection value vectors, aligned with each cuboid's dims. A
	// value outside its dimension's domain selects nothing, and its mixed-radix
	// cell key would name another cell: the answer is empty, read for nothing.
	condVals := make([][]int32, len(cover))
	for i, cb := range cover {
		vals := make([]int32, len(cb.dims))
		for j, d := range cb.dims {
			vals[j] = q.Cond[d]
			if vals[j] < 0 || int(vals[j]) >= cb.cards[j] {
				endPlan()
				return nil, nil
			}
		}
		condVals[i] = vals
	}

	exec := &gridExec{
		cube:     c,
		cover:    cover,
		condVals: condVals,
		f:        q.F,
		ctr:      ctr,
		blockBuf: c.blocks.NewBuffer(),
		topk:     heap.NewBounded[Result](q.K, core.WorseResult),
		box:      c.meta.BlockBox(0),
	}
	exec.cubeBufs = make([]*pager.Buffer, len(cover))
	for i, cb := range cover {
		exec.cubeBufs[i] = pager.NewBuffer(cb.store)
	}
	endPlan()

	defer ctr.StartSpan("search")()
	if ranking.IsConvexFunc(q.F) {
		if min, ok := q.F.(ranking.Minimizer); ok {
			exec.neighborhoodSearch(min)
			return exec.topk.Sorted(), nil
		}
	}
	exec.exhaustiveSearch()
	return exec.topk.Sorted(), nil
}

// gridExec is one query's execution state. Everything the block loop needs
// from one block to the next — the bounding box, the tid lists — is scratch
// owned here, so processing a block allocates nothing once the lists have
// grown to a cell's width.
type gridExec struct {
	cube     *Cube
	cover    []*Cuboid
	condVals [][]int32
	f        ranking.Func
	ctr      *stats.Counters

	blockBuf *pager.Buffer
	cubeBufs []*pager.Buffer
	topk     *heap.Bounded[Result]

	box        ranking.Box // the block being bounded
	cand, tids []table.TID // a block's surviving candidates; one cuboid's list
	marked     []uint64    // the pages of the block's run its needed rows lie on
}

type scoredBlock struct {
	bid   BID
	bound float64
}

func lessBlock(a, b scoredBlock) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.bid < b.bid
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

// bound computes f's lower bound over base block bid.
func (e *gridExec) bound(bid BID) scoredBlock {
	e.cube.meta.boxInto(bid, e.box)
	return scoredBlock{bid: bid, bound: e.f.LowerBound(e.box)}
}

// neighborhoodSearch implements the convex-function search of §3.3.2: start
// at the block containing the function minimum and expand through the
// neighbor list H ordered by block lower bounds (Lemma 1).
func (e *gridExec) neighborhoodSearch(min ranking.Minimizer) {
	meta := e.cube.meta
	start := meta.BlockOf(min.ArgMin(meta.Domain()))

	h := heap.New[scoredBlock](lessBlock)
	inserted := make(bidSet, (meta.NumBlocks()+63)/64)
	inserted.add(start)
	h.Push(e.bound(start))

	var neighbors []BID
	for h.Len() > 0 {
		e.ctr.ObserveHeap(h.Len())
		top := h.Pop()
		if e.done(top.bound) {
			return
		}
		e.processBlock(top.bid)
		neighbors = meta.Neighbors(top.bid, neighbors[:0])
		for _, nb := range neighbors {
			if inserted.add(nb) {
				h.Push(e.bound(nb))
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
	bounds := make([]scoredBlock, 0, len(blocks))
	for bid := range blocks {
		if len(blocks[bid].tids) == 0 {
			continue
		}
		if sb := e.bound(BID(bid)); !math.IsInf(sb.bound, 1) {
			bounds = append(bounds, sb)
		}
	}
	h := heap.From(bounds, lessBlock)
	for h.Len() > 0 {
		e.ctr.ObserveHeap(h.Len())
		top := h.Pop()
		if e.done(top.bound) {
			return
		}
		e.processBlock(top.bid)
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
	for i, cb := range e.cover {
		if i == 0 {
			e.cand = cb.blockTIDs(e.condVals[i], bid, e.cubeBufs[i], e.ctr, e.cand[:0])
			cand = e.cand
		} else {
			e.tids = cb.blockTIDs(e.condVals[i], bid, e.cubeBufs[i], e.ctr, e.tids[:0])
			cand = core.IntersectSorted(cand, e.tids)
		}
		if len(cand) == 0 {
			return
		}
	}

	blk, w := &e.cube.blocks.blocks[bid], e.cube.meta.rowBytes()
	// An unconditioned query (no covering cuboids) needs every tuple of the
	// block: the whole run.
	if len(e.cover) == 0 {
		touchRows(blk.pages, w, 0, len(blk.tids), e.blockBuf, e.ctr)
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
	if score := e.f.Eval(blk.ranks[i*r : (i+1)*r]); !math.IsInf(score, 1) {
		e.topk.Offer(Result{TID: blk.tids[i], Score: score})
	}
}
