package signature

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"rankcube/internal/bitvec"
	"rankcube/internal/errs"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/poison"
	"rankcube/internal/stats"
)

// Alpha is the target fill ratio α of partial signatures relative to the
// page size (§4.2.3: "we control the size of each partial signature around
// αP (α < 1)").
const Alpha = 0.75

// Stored is one cell's signature in compressed, decomposed form: a set of
// partial signatures, each a BFS-encoded subtree referenced by the SID of
// the subtree's root (§4.2.3). Its pages do not change while it lives:
// maintenance installs a new Stored for each cell it rewrites, and repair one
// for every cell. So a partial's replay, once a view has built it, is shared
// by every view of the cell until the Stored itself is dropped; see View.
type Stored struct {
	height int
	fanout int
	// refs maps the SID of each partial's root node to the partial. An
	// ancestor's SID is smaller than its descendants', so ascending SID order
	// is a valid load order.
	refs map[uint64]*partial
}

// partial is one partial signature: its page, and its replay once published.
type partial struct {
	page   pager.PageID
	replay atomic.Pointer[replay]
}

// replay is what a view learns from a partial's bytes by replaying the
// encoder's BFS over them, short of its leaf-level nodes' bits: the SIDs of the
// nodes the partial holds, ascending (BFS order is SID order), the bit offset
// of each node's encoding on the page, and the bits of its internal nodes,
// which are the first len(inner) of them. It is published only once the
// header, the root SID and the node count have checked out, and never changes
// after.
type replay struct {
	sids  []uint64
	offs  []int32
	inner []*bitvec.Bits
}

// Encoder writes cell signatures into a shared page store, and decodes them
// back for maintenance to rewrite. It keeps its working storage from use to
// use and is not safe for concurrent use: a cube has one, and writes to it
// hold the cube exclusively.
type Encoder struct {
	codec  *bitvec.Codec
	store  *pager.Store
	height int
	fanout int
	// targetBits is the αP cut-off per partial, in bits.
	targetBits int
	// baselineOnly disables adaptive node compression (the "Baseline"
	// series of fig. 4.10).
	baselineOnly bool
	// w and queue are one partial's scratch, reused from partial to partial
	// and from cell to cell; the queue is cleared after each partial, as it
	// points into the tree.
	w     bitvec.Writer
	queue []bfsItem
	// The storage of the tree Decode returned last, taken back by the next
	// Decode: its nodes, their Kids slots, their bits and the replay queue.
	nodes []Node
	kids  []*Node
	arena bitvec.Arena
	items []replayItem
}

// SetBaselineOnly toggles baseline-only node coding.
func (e *Encoder) SetBaselineOnly(v bool) { e.baselineOnly = v }

// SetHeight updates the partition height recorded into future encodings;
// incremental maintenance calls it after tree growth (a root split deepens
// every tuple path).
func (e *Encoder) SetHeight(h int) { e.height = h }

// NewEncoder returns an encoder for signatures over an index of the given
// fanout and height, decomposing at Alpha×pageSize bytes.
func NewEncoder(fanout, height int, store *pager.Store) *Encoder {
	return &Encoder{
		codec:      bitvec.NewCodec(fanout),
		store:      store,
		height:     height,
		fanout:     fanout,
		targetBits: int(Alpha * float64(store.PageSize()) * 8),
	}
}

// Codec exposes the node codec (shared with views).
func (e *Encoder) Codec() *bitvec.Codec { return e.codec }

// bfsItem is a signature node on a partial's BFS queue; top is the slot of
// the partial root's child it lies under (0 for the root itself).
type bfsItem struct {
	top int
	n   *Node
}

// replayItem is an internal node on Decode's replay queue.
type replayItem struct {
	sid   uint64
	depth int
	n     *Node
}

// Encode compresses and decomposes sig, appending pages to the encoder's
// store. A nil signature encodes to an empty Stored (every Test is false).
// A node that still has the encoding Decode found it in is copied, not coded
// again: node coding is a function of the bits alone, so the pages are the
// same either way.
func (e *Encoder) Encode(sig *Node) *Stored {
	st := &Stored{height: e.height, fanout: e.fanout, refs: make(map[uint64]*partial)}
	if sig != nil {
		e.partial(st, nil, sig)
	}
	return st
}

// partial writes the partial signature rooted at root, the node at path: the
// nodes of its subtree no ancestor's partial has coded, in BFS order up to the
// αP cut, then one partial per child of root with nodes still left over.
func (e *Encoder) partial(st *Stored, path []int, root *Node) {
	w := &e.w
	w.Reset()
	// Partial header: ref path then a node-count placeholder patched at
	// the end (a fixed 32-bit field; what precedes it is whole bytes).
	w.WriteBits(uint64(len(path)), 8)
	for _, p := range path {
		w.WriteBits(uint64(p), 16)
	}
	countPos := w.Len()
	w.WriteBits(0, 32)

	count := 0
	queue := append(e.queue[:0], bfsItem{n: root})
	cut := -1
	// The stored encodings of consecutive clean nodes that lie end to end on
	// one page are copied as one run: size bits from bit off of page.
	var page []byte
	off, size := 0, 0
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi].n
		if n.coded != st {
			if count > 0 && w.Len()+size-countPos > e.targetBits {
				// Cut: everything from here on belongs to descendant
				// partials.
				cut = qi
				break
			}
			switch {
			case n.page != nil && size > 0 && &n.page[0] == &page[0] && n.off == off+size:
				size += n.size
			case n.page != nil:
				w.Copy(page, off, size)
				page, off, size = n.page, n.off, n.size
			default:
				w.Copy(page, off, size)
				size = 0
				if e.baselineOnly {
					e.codec.EncodeBaseline(w, n.Bits)
				} else {
					e.codec.Encode(w, n.Bits)
				}
			}
			n.coded = st
			count++
		}
		for i, kid := range n.Kids {
			if kid == nil {
				continue
			}
			top := queue[qi].top
			if qi == 0 {
				top = i + 1
			}
			queue = append(queue, bfsItem{top, kid})
		}
	}
	w.Copy(page, off, size)
	binary.LittleEndian.PutUint32(w.Bytes()[countPos/8:], uint32(count))
	st.refs[hindex.SID(path, e.fanout)] = &partial{page: e.store.Append(w.Bytes())}
	// Recurse into the children of this partial's root that still hold
	// uncoded nodes, in slot order (§4.2.3). Every uncoded node whose parent
	// is coded is on the queue past the cut, so those are the slots; they are
	// noted before the queue, which points into the tree, is cleared for the
	// recursion and the next cell.
	var pending []bool
	if cut >= 0 {
		pending = make([]bool, len(root.Kids)+1)
		for _, item := range queue[cut:] {
			if item.n.coded != st {
				pending[item.top] = true
			}
		}
	}
	clear(queue)
	e.queue = queue[:0]
	for p := 1; p < len(pending); p++ {
		if pending[p] {
			e.partial(st, append(path[:len(path):len(path)], p), root.Kids[p-1])
		}
	}
}

// NumPartials reports how many partial signatures the cell decomposed into.
func (s *Stored) NumPartials() int { return len(s.refs) }

// Partials maps the SID of each partial's root to its page, for inspection.
func (s *Stored) Partials() map[uint64]pager.PageID {
	out := make(map[uint64]pager.PageID, len(s.refs))
	for sid, p := range s.refs {
		out[sid] = p.page
	}
	return out
}

// Free releases the cell's partial pages back to store — what maintenance
// does with the encoding a rewrite has just replaced — in SID order, so that
// the store hands them out again in the same order run after run.
func (s *Stored) Free(store *pager.Store) {
	for _, sid := range s.sids() {
		store.Free(s.refs[sid].page)
	}
}

// sids lists the cell's partials by ascending SID: ancestors first.
func (s *Stored) sids() []uint64 {
	sids := make([]uint64, 0, len(s.refs))
	for sid := range s.refs {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	return sids
}

// View is a per-query lazy decoder over a stored signature: a partial
// signature is loaded (and charged as a block read) only when the query
// requests a node it encodes (§4.2.3), and a node is decoded only when the
// query reaches it.
//
// What is per query: the loads and their charges, the bytes each load read,
// and the leaf-level nodes decoded from them. The storage that holds them —
// the loaded runs, the leaf index, the arena the leaf decodes are carved from
// and the replay queue — is on loan from a pool from NewView to Release, and
// a view whose query decodes no more than an earlier one's takes no new
// storage. Whoever assembles a view releases it once its query is over, on
// every way out; a released view is spent, and a Test or Probe on it aborts
// with a typed errs.ErrInternal rather than read storage another query now
// holds. A view never released is garbage collected like any other value.
//
// What is shared: each partial's replay (the SIDs and places of its nodes and
// its internal nodes' bits), which the first load of the partial by any view
// builds from its bytes and publishes on the Stored, and every later load
// reads in place of replaying the BFS again — after it has read, charged and
// verified the page all the same. No decoded leaf is shared.
type View struct {
	stored *Stored
	codec  *bitvec.Codec
	store  *pager.Store
	ctr    *stats.Counters
	// base is the SID radix M+1: a child's SID is parent·base + position.
	base uint64
	// viewStorage is nil once the view is released.
	*viewStorage
}

// viewStorage is what a view loads and decodes into, kept in views from one
// view to the next.
type viewStorage struct {
	// runs are the loaded partials in load order. No node is in two runs.
	runs []run
	// top is the first loaded run with no loaded ancestor (-1 for none).
	top int32
	// leaves holds the leaf-level nodes of the runs once decoded (storage from
	// arena): run r's node i, past its internal ones, at r.lo + i − len(r.inner).
	leaves []*bitvec.Bits
	arena  bitvec.Arena
	// queue is the BFS scratch of a replay this view builds.
	queue []bfsNode
}

// views holds the storage of released views.
var views = sync.Pool{New: func() any { return new(viewStorage) }}

// garbage is what poisoned storage holds where a nil leaf is expected.
var garbage = bitvec.NewBits(64)

// run is one loaded partial: its root's SID, its replay, the page this view
// read, and where its leaf-level nodes start in leaves. Partials load root to
// leaf, so when one loads, every partial rooted at an ancestor of its root is
// loaded already and none rooted below it is: the loaded partials form a tree,
// in which up is the run's parent, kid its first child and next its next
// sibling (-1 for none).
type run struct {
	*replay
	sid           uint64
	page          []byte
	lo            int
	up, kid, next int32
}

// bfsNode is an internal signature node during a BFS replay.
type bfsNode struct {
	sid   uint64
	depth int
	bits  *bitvec.Bits
}

// NewView opens a view charging signature loads to ctr, on storage taken from
// the pool and emptied.
func NewView(s *Stored, codec *bitvec.Codec, store *pager.Store, ctr *stats.Counters) *View {
	vs := views.Get().(*viewStorage)
	poison.Fill(vs.runs, run{sid: poison.SID, lo: poison.TID, up: poison.TID, kid: poison.TID, next: poison.TID})
	poison.Fill(vs.leaves, garbage)
	poison.Fill(vs.queue, bfsNode{sid: poison.SID, depth: poison.TID, bits: garbage})
	vs.runs, vs.top, vs.leaves, vs.queue = vs.runs[:0], -1, vs.leaves[:0], vs.queue[:0]
	vs.arena.Reset()
	return &View{stored: s, codec: codec, store: store, ctr: ctr, base: uint64(s.fanout + 1), viewStorage: vs}
}

// Release hands the view's storage back to the pool, dropping every reference
// it held into the cube: the Stored, the replays and the pages read. The view
// is spent. Releasing a spent view does nothing.
func (v *View) Release() {
	vs := v.viewStorage
	if vs == nil {
		return
	}
	clear(vs.runs)
	clear(vs.queue[:cap(vs.queue)])
	v.stored, v.codec, v.store, v.ctr, v.viewStorage = nil, nil, nil, nil, nil
	views.Put(vs)
}

// Release releases the views t was assembled from: t itself, or every member
// of an And. A tester of any other kind holds no view.
func Release(t Tester) {
	switch t := t.(type) {
	case *View:
		t.Release()
	case And:
		for _, m := range t {
			Release(m)
		}
	}
}

// spent aborts a Test or Probe on a released view.
func (v *View) spent() {
	if v.viewStorage == nil {
		errs.Abortf(errs.ErrInternal, "signature: view used after Release")
	}
}

// Test reports the signature bit for the node/tuple at path, loading the
// partial signatures on the path as needed.
func (v *View) Test(path []int) bool {
	v.spent()
	if len(v.stored.refs) == 0 {
		return false
	}
	if len(path) == 0 {
		return true // a non-empty stored signature has a non-empty root
	}
	bits := v.node(path[:len(path)-1])
	pos := path[len(path)-1] - 1
	return bits != nil && pos < bits.Len() && bits.Get(pos)
}

// Probe implements Prober: the children of the node at parent that hold a
// tuple of the cell are the set bits of its signature node, fetched through
// the same lazy loads as Test.
func (v *View) Probe(parent []int, live *bitvec.Bits) {
	v.spent()
	bits := v.node(parent)
	if bits == nil {
		bits = noBits
	}
	live.And(bits)
}

// node resolves the bits of the signature node at path, loading the partials
// rooted at prefixes of path in root-to-leaf order until one holds the node.
// Only a partial rooted at the node or at an ancestor can hold it, so node
// looks for it only in the loaded ones of those, which it finds along path.
func (v *View) node(path []int) *bitvec.Bits {
	for {
		// at is the deepest loaded partial rooted at a prefix of path, at depth
		// deep; the loaded others are its ancestors.
		at, deep, sid := int32(-1), -1, uint64(0)
		for d := 0; ; d++ {
			for c := v.kid(at); c >= 0; c = v.runs[c].next {
				if v.runs[c].sid == sid {
					at, deep = c, d
					break
				}
			}
			if d == len(path) {
				break
			}
			sid = sid*v.base + uint64(path[d])
		}
		if in, i := v.find(at, sid); i >= 0 {
			return v.decode(in, i)
		}
		if !v.loadBelow(path, at, deep) {
			return nil
		}
	}
}

// loadBelow loads the shallowest partial rooted at a prefix of path deeper
// than deep, the depth of run at, and reports whether there was one.
func (v *View) loadBelow(path []int, at int32, deep int) bool {
	for d := deep + 1; d <= len(path); d++ {
		sid := hindex.SID(path[:d], v.stored.fanout)
		if p, exists := v.stored.refs[sid]; exists {
			v.loadPartial(sid, p, at)
			return true
		}
	}
	return false
}

// kid returns the first child of run at in the tree of loaded partials, or
// with at = -1 the first loaded run with no loaded ancestor.
func (v *View) kid(at int32) int32 {
	if at < 0 {
		return v.top
	}
	return v.runs[at].kid
}

// find locates node sid in run at and its ancestors: the run that holds it and
// its index there, or -1 when none of them does.
func (v *View) find(at int32, sid uint64) (int32, int) {
	for ; at >= 0; at = v.runs[at].up {
		if i, ok := slices.BinarySearch(v.runs[at].sids, sid); ok {
			return at, i
		}
	}
	return -1, -1
}

// decode returns the bits of node i of run at: the replay's for an internal
// node, and for a leaf-level one the view's, decoded off the run's page the
// first time.
func (v *View) decode(at int32, i int) *bitvec.Bits {
	p := &v.runs[at]
	if i < len(p.inner) {
		return p.inner[i]
	}
	leaf := &v.leaves[p.lo+i-len(p.inner)]
	if *leaf == nil {
		r := bitvec.NewReader(p.page)
		r.Seek(int(p.offs[i]))
		*leaf = v.codec.DecodeIn(r, &v.arena)
	}
	return *leaf
}

// loadPartial reads the partial signature p, rooted at sid, into a new run
// under run up, the deepest loaded partial rooted at an ancestor of sid. The
// read comes first, whatever the Stored holds: every load is charged, and
// fault injection, the quarantine fail-fast and the checksum see it. The
// partial's replay is then the one published on p, or, on the first load of p
// by any view, the one this load builds and publishes — unless another view
// published one first, which then serves both.
func (v *View) loadPartial(sid uint64, p *partial, up int32) {
	data := v.store.Read(p.page, v.ctr)
	rp := p.replay.Load()
	if rp == nil {
		rp = v.replayPartial(sid, data, up)
		if !p.replay.CompareAndSwap(nil, rp) {
			rp = p.replay.Load()
		}
	}
	at := int32(len(v.runs))
	v.runs = append(v.runs, run{replay: rp, sid: sid, page: data, lo: len(v.leaves), up: up, kid: -1, next: v.kid(up)})
	v.leaves = append(v.leaves, make([]*bitvec.Bits, len(rp.sids)-len(rp.inner))...)
	if up < 0 {
		v.top = at
	} else {
		v.runs[up].kid = at
	}
}

// replayPartial replays the encoder's BFS over data, the partial rooted at
// sid, under run up: a node an ancestor's partial holds is passed over, one of
// its own is decoded if internal, for the replay to walk its set bits, and
// otherwise stepped over by the region length in its header. Everything read here came
// off a stored page: a header that disagrees with the reference or with the
// nodes that follow is corruption, not a bug, and so is a leaf-level node that
// does not decode, found when a query first reaches it.
func (v *View) replayPartial(sid uint64, data []byte, up int32) *replay {
	r := bitvec.NewReader(data)
	depth := int(r.ReadBits(8))
	root := uint64(0)
	for i := 0; i < depth; i++ {
		root = root*v.base + r.ReadBits(16)
	}
	if root != sid {
		errs.Abortf(errs.ErrPageCorrupt, "signature: partial %d is headed as partial %d", sid, root)
	}
	count := int(r.ReadBits(32))
	// The count is an on-page field: make room for no more than the page holds.
	n := min(count, r.Remaining()/v.codec.HeaderBits())
	rp := &replay{sids: make([]uint64, 0, n), offs: make([]int32, 0, n)}

	// The queue holds the internal nodes whose children are still to be
	// visited. BFS visits a level before the next, and the leaf level is the
	// deepest, so the partial's internal nodes come before its leaf-level ones.
	leaf := leafDepth(v.stored.height)
	queue := v.queue[:0]
	visit := func(sid uint64, depth int) {
		var bits *bitvec.Bits
		if at, i := v.find(up, sid); i >= 0 {
			if depth < leaf {
				bits = v.decode(at, i)
			}
		} else {
			rp.sids, rp.offs = append(rp.sids, sid), append(rp.offs, int32(r.Pos()))
			if depth < leaf {
				bits = v.codec.Decode(r)
				rp.inner = append(rp.inner, bits)
			} else {
				v.codec.Skip(r)
			}
		}
		if depth < leaf {
			queue = append(queue, bfsNode{sid, depth, bits})
		}
	}
	if count > 0 {
		visit(sid, depth)
	}
	for qi := 0; qi < len(queue) && len(rp.sids) < count; qi++ {
		p := queue[qi]
		for i := p.bits.NextOne(0); i >= 0 && len(rp.sids) < count; i = p.bits.NextOne(i + 1) {
			visit(p.sid*v.base+uint64(i+1), p.depth+1)
		}
	}
	v.queue = queue[:0]
	if len(rp.sids) != count {
		errs.Abortf(errs.ErrPageCorrupt, "signature: partial %d replays %d nodes, header says %d", sid, len(rp.sids), count)
	}
	return rp
}

// Decode decodes a stored signature for incremental maintenance, charging the
// reads to ctr. The partials are replayed, ancestors first, straight into the
// tree — a child slot already filled is a node an ancestor's partial held —
// and every node keeps the place of its encoding for Encode to copy. Internal
// nodes are decoded, since the replay walks their bits, and so is each
// leaf-level node whose SID want accepts; any other leaf-level node is stepped
// over by the region length in its header and keeps only its place, which is
// all Encode needs of it. A page that does not replay (a header at odds with
// its reference, a root that hangs from no set bit, a count the nodes do not
// bear out, a decoded node that does not decode) is corrupt. A malformed node
// stepped over is copied as it is, to be found when a query or a later write
// first reaches it.
//
// The tree is built in the encoder's storage and lives until its next Decode,
// which takes that storage back; it points into the pages it was read from,
// which must not be freed before it is done with. Set, Clear and Encode may
// change it in between: a slot added to a node moves its Kids and bits out of
// the shared storage rather than overwrite a neighbour's.
func (e *Encoder) Decode(s *Stored, ctr *stats.Counters, want func(sid uint64) bool) *Node {
	e.take()
	var (
		root    *Node
		page    []byte
		r       bitvec.Reader
		decoded int
	)
	leaf, base := leafDepth(s.height), uint64(s.fanout+1)
	// visit decodes the node sid for the slot at, unless it is there already.
	visit := func(at **Node, sid uint64, depth int) {
		n := *at
		if n == nil {
			n = &carve(&e.nodes, 1)[0]
			n.page, n.off = page, r.Pos()
			switch {
			case depth < leaf:
				n.Bits = e.codec.DecodeIn(&r, &e.arena)
				n.Kids = carve(&e.kids, n.Bits.Len())
			case want(sid):
				n.Bits = e.codec.DecodeIn(&r, &e.arena)
			default:
				e.codec.Skip(&r)
			}
			n.size = r.Pos() - n.off
			*at = n
			decoded++
		}
		if depth < leaf {
			e.items = append(e.items, replayItem{sid, depth, n})
		}
	}
	for _, sid := range s.sids() {
		page = e.store.Read(s.refs[sid].page, ctr)
		r.Reset(page)
		depth, headed, at := int(r.ReadBits(8)), uint64(0), &root
		for i := 0; i < depth; i++ {
			p, n := int(r.ReadBits(16)), *at
			if n == nil || p < 1 || p > len(n.Kids) || !n.Bits.Get(p-1) {
				errs.Abortf(errs.ErrPageCorrupt, "signature: partial %d hangs from no marked slot", sid)
			}
			headed, at = headed*base+uint64(p), &n.Kids[p-1]
		}
		if headed != sid {
			errs.Abortf(errs.ErrPageCorrupt, "signature: partial %d is headed as partial %d", sid, headed)
		}
		count := int(r.ReadBits(32))
		decoded, e.items = 0, e.items[:0]
		if count > 0 {
			visit(at, sid, depth)
		}
		for qi := 0; qi < len(e.items) && decoded < count; qi++ {
			p := e.items[qi]
			for i := p.n.Bits.NextOne(0); i >= 0 && decoded < count; i = p.n.Bits.NextOne(i + 1) {
				visit(&p.n.Kids[i], p.sid*base+uint64(i+1), p.depth+1)
			}
		}
		if decoded != count {
			errs.Abortf(errs.ErrPageCorrupt, "signature: partial %d decoded %d nodes, header says %d",
				sid, decoded, count)
		}
	}
	return root
}

// garbageNode is what poisoned decode storage holds for a node and where a
// nil child is expected.
var garbageNode = Node{Bits: garbage, off: poison.TID, size: poison.TID}

// take empties the decode storage for a new tree, keeping its slabs: the tree
// Decode returned last is gone.
func (e *Encoder) take() {
	poison.Fill(e.nodes, garbageNode)
	poison.Fill(e.kids, &garbageNode)
	poison.Fill(e.items, replayItem{sid: poison.SID, depth: poison.TID, n: &garbageNode})
	e.nodes, e.kids, e.items = e.nodes[:0], e.kids[:0], e.items[:0]
	e.arena.Reset()
}

// carve hands out n zeroed elements of *slab, capped so that an append to them
// moves them out rather than overwrite what follows. Elements once handed out
// stay where they are: a slab short of room is left to them and replaced by
// one twice as large, which the slab keeps from then on.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if s == nil || len(s)+n > cap(s) {
		s = make([]T, 0, max(2*cap(s), n, 64))
	}
	lo := len(s)
	s = s[:lo+n]
	clear(s[lo:])
	*slab = s
	return s[lo : lo+n : lo+n]
}
