// Package gridcube implements the ranking cube of thesis chapter 3: an
// equi-depth grid partition of the ranking dimensions (base blocks), a
// rank-aware data cube over the selection dimensions whose measure is a
// ⟨pseudo-block, tid/bid list⟩ layout, the four-step progressive query
// algorithm (pre-process / search / retrieve / evaluate), and the ranking
// fragments extension for high-dimensional selection spaces (§3.4).
package gridcube

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// BID is a base-block id: the row-major index of the block's bin coordinates
// over the ranking dimensions.
type BID int32

// Meta is the partitioning meta information the cube stores alongside the
// cuboids (§3.2.2): the equi-depth bin boundaries of every ranking dimension
// plus derived geometry.
type Meta struct {
	// Bounds[d] holds bins+1 ascending boundary values of ranking
	// dimension d; bin i spans [Bounds[d][i], Bounds[d][i+1]].
	Bounds [][]float64
	// Bins is the number of bins per dimension (uniform across dimensions).
	Bins int
	// R is the number of ranking dimensions.
	R int
	// coords[bid·R:][:R] are block bid's bin coordinates, the bid being
	// their row-major index, and strides[d] is what one bin on dimension d
	// adds to a bid: a block's box and neighbours are read from them
	// instead of divided out of the bid.
	coords  []int32
	strides []int
}

// NewMeta computes equi-depth bin boundaries over t's ranking dimensions so
// that base blocks hold about blockSize tuples: bins = ceil((T/P)^(1/R))
// (§3.2.2). Over no rows there is one bin, spanning every finite value.
func NewMeta(t *table.Table, blockSize int) Meta {
	r := t.Schema().R()
	n := t.Len()
	if blockSize < 1 {
		blockSize = 1
	}
	bins := int(math.Ceil(math.Pow(float64(n)/float64(blockSize), 1/float64(r))))
	if bins < 1 {
		bins = 1
	}
	m := Meta{Bounds: make([][]float64, r), Bins: bins, R: r}
	for d := 0; d < r; d++ {
		if n == 0 {
			m.Bounds[d] = []float64{-math.MaxFloat64, math.MaxFloat64}
			continue
		}
		col := append([]float64(nil), t.RankColumn(d)...)
		sort.Float64s(col)
		bounds := make([]float64, bins+1)
		for i := 0; i <= bins; i++ {
			pos := i * (n - 1) / bins
			if i == bins {
				pos = n - 1
			}
			bounds[i] = col[pos]
		}
		// Equi-depth boundaries can repeat under heavy value duplication;
		// force strict monotonicity so every bin has positive extent.
		for i := 1; i <= bins; i++ {
			if bounds[i] <= bounds[i-1] {
				bounds[i] = math.Nextafter(bounds[i-1], math.Inf(1))
			}
		}
		m.Bounds[d] = bounds
	}
	m.strides = make([]int, r)
	for d, stride := r-1, 1; d >= 0; d-- {
		m.strides[d], stride = stride, stride*bins
	}
	m.coords = make([]int32, m.NumBlocks()*r)
	for i := range m.coords {
		m.coords[i] = int32(i / r / m.strides[i%r] % bins)
	}
	return m
}

// NumBlocks reports the total number of base blocks (bins^R).
func (m Meta) NumBlocks() int {
	n := 1
	for i := 0; i < m.R; i++ {
		n *= m.Bins
	}
	return n
}

// BinOf locates the bin of value v on dimension d.
func (m Meta) BinOf(d int, v float64) int {
	bounds := m.Bounds[d]
	// Upper bound: first boundary strictly greater than v.
	i := sort.SearchFloat64s(bounds, v)
	if i < len(bounds) && bounds[i] == v {
		i++
	}
	bin := i - 1
	if bin < 0 {
		bin = 0
	}
	if bin >= m.Bins {
		bin = m.Bins - 1
	}
	return bin
}

// BlockOf computes the base-block id of a full-width ranking vector.
func (m Meta) BlockOf(rank []float64) BID {
	bid := 0
	for d := 0; d < m.R; d++ {
		bid = bid*m.Bins + m.BinOf(d, rank[d])
	}
	return BID(bid)
}

// Coords returns in buf block bid's per-dimension bin coordinates.
func (m Meta) Coords(bid BID, buf []int) []int {
	buf = buf[:0]
	for _, c := range m.coords[int(bid)*m.R:][:m.R] {
		buf = append(buf, int(c))
	}
	return buf
}

// BlockOfCoords composes a bid from bin coordinates.
func (m Meta) BlockOfCoords(coords []int) BID {
	bid := 0
	for _, c := range coords {
		bid = bid*m.Bins + c
	}
	return BID(bid)
}

// BlockBox returns the full-width box covered by block bid.
func (m Meta) BlockBox(bid BID) ranking.Box {
	box := ranking.NewBox(make([]float64, m.R), make([]float64, m.R))
	m.boxInto(bid, box)
	return box
}

// boxInto overwrites box (R wide) with the extent of block bid; the search
// loop bounds every block through one box it owns. It and Neighbors take m by
// pointer: the search calls them per block, and a Meta is too big to copy
// there.
func (m *Meta) boxInto(bid BID, box ranking.Box) {
	for d, c := range m.coords[int(bid)*m.R:][:m.R] {
		box.Lo[d], box.Hi[d] = m.Bounds[d][c], m.Bounds[d][c+1]
	}
}

// domainInto overwrites box (R wide) with the full data domain.
func (m Meta) domainInto(box ranking.Box) {
	for d := 0; d < m.R; d++ {
		box.Lo[d] = m.Bounds[d][0]
		box.Hi[d] = m.Bounds[d][m.Bins]
	}
}

// Neighbors appends the Moore neighborhood of bid (all blocks differing by
// at most one bin per dimension) to dst, in no particular order. The thesis'
// Lemma 1 drives the neighborhood search over these.
func (m *Meta) Neighbors(bid BID, dst []BID) []BID {
	// Grown in dst itself one dimension at a time from bid: every block id
	// listed so far spawns its two moves on the dimension at the tail, so the
	// slot that started the list stays bid itself.
	self := len(dst)
	dst = append(dst, bid)
	for d, c := range m.coords[int(bid)*m.R:][:m.R] {
		stride := BID(m.strides[d])
		for i, n := self, len(dst); i < n; i++ {
			if c > 0 {
				dst = append(dst, dst[i]-stride)
			}
			if int(c) < m.Bins-1 {
				dst = append(dst, dst[i]+stride)
			}
		}
	}
	last := len(dst) - 1
	dst[self] = dst[last]
	return dst[:last]
}

// rowBytes is the width of one base-block row: a tid (4) and R ranking
// values (8 each).
func (m Meta) rowBytes() int { return 4 + 8*m.R }

// Every run the cube fetches — a base block, an uncompressed cell — is
// fixed-width rows laid over logical pages, one per PageSize bytes, all full
// but the last: a cell's entries in (bid, tid) order, a block's rows in
// selection order. The row at position p lives on page ⌊p·w / PageSize⌋ of its
// run, and on the next one too when it straddles the boundary. Locating a
// row's page is arithmetic: each page's id and fence key belong to the
// in-memory directory beside the run, and a block's row of each tid to the
// block table's row table, all negligible meta (§3.4.1), so a query charges
// only the pages holding the rows it needs.

// runPages is the number of pages a run of size bytes occupies.
func runPages(size int) int { return (size + pager.PageSize - 1) / pager.PageSize }

// growRun extends run, pages of s, to hold size bytes: the last page fills up
// before a new one opens. A run laid out from nothing gets consecutive ids.
func growRun(s *pager.Store, run []pager.PageID, size int) []pager.PageID {
	if n := len(run); n > 0 {
		s.Resize(run[n-1], min(size-(n-1)*pager.PageSize, pager.PageSize))
	}
	for n := len(run); n*pager.PageSize < size; n++ {
		run = append(run, s.AppendLogical(min(size-n*pager.PageSize, pager.PageSize)))
	}
	return run
}

// touchRows charges through buf the pages of run that hold its rows [lo, hi)
// of w bytes each.
func touchRows(run []pager.PageID, w, lo, hi int, buf *pager.Buffer, c *stats.Counters) {
	if hi <= lo {
		return
	}
	for pg := lo * w / pager.PageSize; pg <= (hi*w-1)/pager.PageSize; pg++ {
		buf.Touch(run[pg], c)
	}
}

// block is one base block of the table: its rows' tuple ids, their ranking
// vectors flattened R values per row in the same order (§3.2.2 Table 3.2's
// right-hand decomposition), and the pages of the run that holds them, row i
// being tids[i] with its ranking vector. A block without tuples has no page.
//
// Rows are in selection order: the rows of a build sorted by selection vector
// (lexicographic in dimension order), then by tid; a row inserted since is
// appended at the end. The tuples a predicate on dimension 0 selects are then
// one stretch of the block instead of being spread over all of its pages.
type block struct {
	tids  []table.TID
	ranks []float64
	pages []pager.PageID
}

// BlockTable is the base block table T of the ranking cube triple ⟨T, C, M⟩,
// dense over the bids.
type BlockTable struct {
	meta   Meta
	blocks []block
	// rowOf[tid] is tuple tid's row in its block. The cuboid cells name a
	// tuple by tid; this is its physical address, like a B-tree's rid, and as
	// meta information it is never charged (§3.4.1).
	rowOf []int32
	store *pager.Store
}

// NewBlockTable partitions t's tuples into base blocks, rows in selection
// order.
func NewBlockTable(t *table.Table, meta Meta) *BlockTable {
	r, n := meta.R, t.Len()
	bt := &BlockTable{
		meta:   meta,
		blocks: make([]block, meta.NumBlocks()),
		rowOf:  make([]int32, n),
		store:  pager.NewStore(stats.StructBlockTab, pager.PageSize),
	}
	bids := make([]BID, n)
	counts := make([]int, len(bt.blocks))
	rank := make([]float64, r)
	for i := range bids {
		bids[i] = meta.BlockOf(t.RankRow(table.TID(i), rank))
		counts[bids[i]]++
	}
	// Every block is carved from two slabs with its capacity clipped to its
	// own tuples, so an Insert's append moves that block alone instead of
	// overwriting its neighbour. One page run per occupied block.
	tids, ranks := make([]table.TID, n), make([]float64, n*r)
	off := 0
	for bid, cnt := range counts {
		if cnt == 0 {
			continue
		}
		bt.blocks[bid] = block{
			tids:  tids[off : off : off+cnt],
			ranks: ranks[off*r : off*r : (off+cnt)*r],
			pages: growRun(bt.store, nil, cnt*meta.rowBytes()),
		}
		off += cnt
	}
	for i, bid := range bids {
		b := &bt.blocks[bid]
		b.tids = append(b.tids, table.TID(i))
	}
	s := t.Schema().S()
	bySelection := func(a, b table.TID) int {
		for d := 0; d < s; d++ {
			if c := cmp.Compare(t.Sel(a, d), t.Sel(b, d)); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	}
	for bid := range bt.blocks {
		b := &bt.blocks[bid]
		slices.SortFunc(b.tids, bySelection)
		for row, tid := range b.tids {
			bt.rowOf[tid] = int32(row)
			b.ranks = append(b.ranks, t.RankRow(tid, rank)...)
		}
	}
	return bt
}

// insert appends tuple tid, of ranking vector rank, as the last row of block
// bid. Tuple ids are dense: tid is the table's next one.
func (bt *BlockTable) insert(bid BID, tid table.TID, rank []float64) {
	b := &bt.blocks[bid]
	bt.rowOf = append(bt.rowOf, int32(len(b.tids)))
	b.tids = append(b.tids, tid)
	b.ranks = append(b.ranks, rank...)
	b.pages = growRun(bt.store, b.pages, len(b.tids)*bt.meta.rowBytes())
}

// Store exposes the backing store (for space accounting).
func (bt *BlockTable) Store() *pager.Store { return bt.store }
