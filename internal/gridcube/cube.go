package gridcube

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"rankcube/internal/core"
	"rankcube/internal/guard"
	"rankcube/internal/pager"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Entry is one measure element of a cuboid cell: a tuple id together with
// its base-block id (thesis Table 3.4: "tid (bid) List").
type Entry struct {
	TID table.TID
	BID BID
}

// Cuboid is one rank-aware cuboid: cells keyed by the values of its
// selection dimensions plus the pseudo-block id, each holding a tid/bid
// list.
type Cuboid struct {
	dims  []int // selection-dimension positions, ascending
	cards []int // cardinalities of dims
	sf    int   // pseudo-block scale factor (§3.2.3)
	pbins int   // pseudo bins per ranking dimension
	numP  int   // pseudo blocks: pbins^R
	// pseudo[bid] is the pseudo block of base block bid: its bin coordinates
	// each divided by sf, in pbins' mixed radix.
	pseudo []int32
	cells  map[uint64]cellRef
	// data holds uncompressed cell payloads, contiguous, grouped by cell and
	// ordered by (bid, tid) inside one: a base block's tids are one
	// ascending run of its cell. nil when lists are delta-compressed (cell
	// bytes live in the store, tid-major).
	data       []Entry
	compressed bool
	// extra holds per-cell overflow entries appended by incremental
	// maintenance since the last repartition, tid-ascending.
	extra map[uint64][]Entry
	store *pager.Store
}

// cellRef locates a cell's materialized run: n entries at data[off:] when
// uncompressed, taking bytes on pages (entryBytes per entry, or the length of
// the compressed payload). Overflow entries extend the run entryBytes each: an
// uncompressed cell's positions continue on its pages after the materialized
// ones, a compressed cell's single payload page grows.
type cellRef struct {
	off, n, bytes int32
	pages         []pager.PageID
}

// entryBytes is the stored width of one uncompressed cell entry: tid and bid.
const entryBytes = 8

// Dims reports the cuboid's selection dimensions.
func (cb *Cuboid) Dims() []int { return cb.dims }

// PseudoOf maps a base block to its pseudo block id.
func (cb *Cuboid) PseudoOf(bid BID) int { return int(cb.pseudo[bid]) }

// cellKey packs selection values (aligned with cb.dims) and a pid into a
// mixed-radix uint64.
func (cb *Cuboid) cellKey(vals []int32, pid int) uint64 {
	key := uint64(0)
	for i, v := range vals {
		key = key*uint64(cb.cards[i]) + uint64(v)
	}
	return key*uint64(cb.numP) + uint64(pid)
}

// GetPseudoBlock implements the get_pseudo_block access method (§3.3.1):
// given the cuboid cell identified by selection values and pid, it returns
// the cell's tid/bid list (overflow entries last), charging through buf every
// page of the cell's run.
func (cb *Cuboid) GetPseudoBlock(vals []int32, pid int, buf *pager.Buffer, c *stats.Counters) []Entry {
	key := cb.cellKey(vals, pid)
	ref, ok := cb.cells[key]
	if !ok {
		return nil
	}
	var base []Entry
	if cb.compressed {
		base = decodeEntries(buf.Read(ref.pages[0], c), int(ref.n), nil)
	} else {
		for _, id := range ref.pages {
			buf.Touch(id, c)
		}
		base = cb.data[ref.off : ref.off+ref.n : ref.off+ref.n]
	}
	return append(base, cb.extra[key]...)
}

// Store exposes the cuboid's page store for space accounting.
func (cb *Cuboid) Store() *pager.Store { return cb.store }

// Cube is the full ranking cube ⟨T, C, M⟩ of chapter 3, generalized to
// fragment grouping (§3.4): with one group holding all selection dimensions
// it is the fully materialized ranking cube; with groups of size F it is the
// ranking-fragments materialization whose footprint grows linearly in the
// number of selection dimensions (Lemma 2).
type Cube struct {
	t      *table.Table
	meta   Meta
	blocks *BlockTable
	// cuboids maps a dimension-set key to its cuboid; order lists them in
	// cover preference (orderAt).
	cuboids map[string]*Cuboid
	order   []*Cuboid
	groups  [][]int
	// tombstones marks deleted tuples awaiting the next repartition;
	// inserted counts Insert calls since the last repartition.
	tombstones map[table.TID]bool
	inserted   int
	cfg        Config
	// ctl is the serving control block: queries hold it shared, maintenance
	// and repair exclusive. It survives Repartition so references held by
	// the API boundary stay valid.
	ctl *guard.RW
}

// Config controls cube construction.
type Config struct {
	// BlockSize is the expected tuples per base block (P); default 300
	// (§3.5.1).
	BlockSize int
	// FragmentSize F groups the selection dimensions into ⌈S/F⌉ fragments;
	// 0 materializes the full cube (a single group of all dimensions).
	FragmentSize int
	// Groups, when non-nil, gives explicit fragment grouping and overrides
	// FragmentSize.
	Groups [][]int
	// CompressLists stores cell tid/bid lists varint-delta compressed
	// (§3.6.3), shrinking the cube at the cost of decode work per access.
	CompressLists bool
}

func (c Config) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return 300
}

// Build materializes a ranking cube (or ranking fragments) over t.
func Build(t *table.Table, cfg Config) *Cube {
	meta := NewMeta(t, cfg.blockSize())
	cube := &Cube{
		t:       t,
		meta:    meta,
		blocks:  NewBlockTable(t, meta),
		cuboids: make(map[string]*Cuboid),
		cfg:     cfg,
		ctl:     guard.New(),
	}
	cube.groups = cfg.Groups
	if cube.groups == nil {
		s := t.Schema().S()
		f := cfg.FragmentSize
		if f <= 0 || f > s {
			f = s
		}
		for lo := 0; lo < s; lo += f {
			hi := lo + f
			if hi > s {
				hi = s
			}
			group := make([]int, 0, f)
			for d := lo; d < hi; d++ {
				group = append(group, d)
			}
			cube.groups = append(cube.groups, group)
		}
	}
	for _, group := range cube.groups {
		for _, dims := range subsets(group) {
			cube.buildCuboid(dims)
		}
	}
	return cube
}

// subsets enumerates the non-empty subsets of dims (the 2^F − 1 cuboids per
// fragment).
func subsets(dims []int) [][]int {
	var out [][]int
	n := len(dims)
	for mask := 1; mask < 1<<uint(n); mask++ {
		var sub []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, dims[i])
			}
		}
		out = append(out, sub)
	}
	return out
}

func (c *Cube) buildCuboid(dims []int) {
	sorted := append([]int(nil), dims...)
	sort.Ints(sorted)
	key := core.IntsKey(sorted)
	if _, ok := c.cuboids[key]; ok {
		return
	}
	cb := c.materializeCuboid(sorted, pager.NewStore(stats.StructCube, pager.PageSize))
	c.cuboids[key] = cb
	i, _ := c.orderAt(sorted)
	c.order = slices.Insert(c.order, i, cb)
}

// orderAt finds where the cuboid over the sorted dims stands, or would, in
// c.order, the order the cover selection prefers cuboids in: widest first,
// equally wide ones by their dimensions as fmt prints them ("[1 10]" before
// "[1 2]"). The greedy cover takes the first of the best, so this tie-break
// decides which cuboids, and which pages, a query reads.
func (c *Cube) orderAt(dims []int) (int, bool) {
	return slices.BinarySearchFunc(c.order, dims, func(cb *Cuboid, dims []int) int {
		if c := cmp.Compare(len(dims), len(cb.dims)); c != 0 {
			return c
		}
		return strings.Compare(fmt.Sprint(cb.dims), fmt.Sprint(dims))
	})
}

// materializeCuboid assembles the cuboid over the (sorted) selection
// dimensions from the current relation into store, which must be empty.
// Build passes a fresh store; quarantine repair passes the corrupt
// cuboid's store after Reset, preserving its identity.
func (c *Cube) materializeCuboid(sorted []int, store *pager.Store) *Cuboid {
	schema := c.t.Schema()
	cards := make([]int, len(sorted))
	prod := 1
	for i, d := range sorted {
		cards[i] = schema.SelCard[d]
		prod *= cards[i]
	}
	// Scale factor sf = ⌊(∏ c_j)^(1/R)⌋ (§3.2.3), at least 1, at most bins.
	sf := int(math.Floor(math.Pow(float64(prod), 1/float64(c.meta.R))))
	if sf < 1 {
		sf = 1
	}
	if sf > c.meta.Bins {
		sf = c.meta.Bins
	}
	cb := &Cuboid{
		dims:       sorted,
		cards:      cards,
		sf:         sf,
		pbins:      (c.meta.Bins + sf - 1) / sf,
		numP:       1,
		pseudo:     make([]int32, c.meta.NumBlocks()),
		compressed: c.cfg.CompressLists,
		store:      store,
	}
	for d := 0; d < c.meta.R; d++ {
		cb.numP *= cb.pbins
	}
	r := c.meta.R
	for bid := range cb.pseudo {
		pid := 0
		for _, x := range c.meta.coords[bid*r:][:r] {
			pid = pid*cb.pbins + int(x)/sf
		}
		cb.pseudo[bid] = int32(pid)
	}

	// Assemble entries sorted by cell key so each cell is one contiguous
	// run, by (bid, tid) inside it — or by tid alone when the run is stored
	// delta-compressed, which lives off small tid deltas.
	n := c.t.Len()
	type keyed struct {
		key uint64
		e   Entry
	}
	rows := make([]keyed, n)
	vals := make([]int32, len(sorted))
	rank := make([]float64, c.meta.R)
	for i := 0; i < n; i++ {
		tid := table.TID(i)
		for j, d := range sorted {
			vals[j] = c.t.Sel(tid, d)
		}
		rank = c.t.RankRow(tid, rank)
		bid := c.meta.BlockOf(rank)
		rows[i] = keyed{key: cb.cellKey(vals, cb.PseudoOf(bid)), e: Entry{TID: tid, BID: bid}}
	}
	slices.SortFunc(rows, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		if c := cmp.Compare(a.e.BID, b.e.BID); c != 0 && !cb.compressed {
			return c
		}
		return cmp.Compare(a.e.TID, b.e.TID)
	})
	cb.cells = make(map[uint64]cellRef)
	if !cb.compressed {
		cb.data = make([]Entry, n)
	}
	var scratch []Entry
	var payload []byte // Append copies it into the page
	for i := 0; i < n; {
		j := i
		for j < n && rows[j].key == rows[i].key {
			if !cb.compressed {
				cb.data[j] = rows[j].e
			}
			j++
		}
		ref := cellRef{off: int32(i), n: int32(j - i), bytes: int32(j-i) * entryBytes}
		if cb.compressed {
			scratch = scratch[:0]
			for k := i; k < j; k++ {
				scratch = append(scratch, rows[k].e)
			}
			payload = appendEntries(payload[:0], scratch)
			ref.bytes, ref.pages = int32(len(payload)), []pager.PageID{cb.store.Append(payload)}
		} else {
			ref.pages = growRun(cb.store, nil, int(ref.bytes))
		}
		cb.cells[rows[i].key] = ref
		i = j
	}
	return cb
}

// RebuildCuboid re-materializes one cuboid from the current relation into
// its reset store — the quarantine repair path for a cuboid whose pages
// failed checksum verification. The store object is kept (Reset truncates
// in place) so fault-injection attachments and health monitors stay valid.
// Overflow entries fold into the rebuilt cells; tombstones remain filtered
// at query time as usual. The caller must hold the cube's control
// exclusively. It returns the number of pages the rebuild materialized.
func (c *Cube) RebuildCuboid(cb *Cuboid) int {
	cb.store.Reset()
	rebuilt := c.materializeCuboid(cb.dims, cb.store)
	c.cuboids[core.IntsKey(cb.dims)] = rebuilt
	if i, ok := c.orderAt(cb.dims); ok {
		c.order[i] = rebuilt
	}
	return cb.store.NumPages()
}

// Ctl returns the cube's serving control block.
func (c *Cube) Ctl() *guard.RW { return c.ctl }

// Cuboid returns the materialized cuboid over exactly dims, or nil.
func (c *Cube) Cuboid(dims []int) *Cuboid {
	sorted := append([]int(nil), dims...)
	sort.Ints(sorted)
	return c.cuboids[core.IntsKey(sorted)]
}

// Cuboids lists all materialized cuboids.
func (c *Cube) Cuboids() []*Cuboid {
	out := make([]*Cuboid, 0, len(c.cuboids))
	for _, cb := range c.cuboids {
		out = append(out, cb)
	}
	sort.Slice(out, func(a, b int) bool {
		return fmt.Sprint(out[a].dims) < fmt.Sprint(out[b].dims)
	})
	return out
}

// Meta returns the partition meta information M.
func (c *Cube) Meta() Meta { return c.meta }

// Blocks returns the base block table T.
func (c *Cube) Blocks() *BlockTable { return c.blocks }

// Table returns the underlying relation.
func (c *Cube) Table() *table.Table { return c.t }

// SizeBytes reports the materialized footprint: all cuboid cells plus the
// base block table (meta information is negligible, §3.4.1).
func (c *Cube) SizeBytes() int64 {
	var total int64
	for _, cb := range c.cuboids {
		total += cb.store.Bytes()
	}
	total += c.blocks.store.Bytes()
	return total
}
