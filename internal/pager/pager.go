// Package pager simulates block-oriented secondary storage.
//
// The thesis evaluates every structure (cuboids, base-block tables, B+-trees,
// R-trees, signatures) in terms of block-level access with a 4 KB page size.
// This package provides an in-memory page store whose reads are counted
// through stats.Counters, plus a per-query buffer so that repeated access to
// a hot page within one query is not double counted — matching the
// buffering behaviour the thesis assumes ("we buffered the bid and tid lists
// retrieved so far", §3.3.2).
//
// Pages carry payload checksums, verified on every read: a corrupt page
// aborts the query with a typed errs.ErrPageCorrupt and quarantines its
// store. A quarantined store fails fast with errs.ErrStructureUnavailable
// until it is repaired: VerifyPages re-checks every checksum, Reset lets the
// owning structure re-materialize its content, EnterHalfOpen re-admits reads
// tentatively, and CloseCircuit returns the store to full service once a
// probe query has succeeded (the half-open circuit-breaker lifecycle). A
// pluggable FaultInjector makes corruption, transient read errors (retried
// up to RetryLimit times with exponential backoff), and added latency
// deterministically testable.
//
// Every charged page access — Read, Touch — takes the page-table lock once,
// snapshotting the payload, its checksum, its block count and the fault
// injector together, and then charges the blocks to the query's
// stats.Counters, which enforces the query's cancellation and budgets. There
// is no uncharged access: a nil Counters aborts with errs.ErrInternal.
//
// A Store is safe for concurrent readers; page-table changes (Append, Free,
// Resize, Reset) and the fault injector (SetFaultInjector) are serialized
// internally, so an injector may be swapped while queries run. Structure-level
// consistency between a store's pages and
// the in-memory maps that index them is the owning engine's responsibility
// (the cubes hold a reader/writer lock across whole operations).
package pager

import (
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"rankcube/internal/errs"
	"rankcube/internal/obs"
	"rankcube/internal/stats"
)

// PageSize is the default page size in bytes used throughout the repository,
// matching the thesis experimental setting (§4.4.1).
const PageSize = 4096

// PageID identifies a page within one Store.
type PageID int32

// Invalid is the zero-value "no page" sentinel.
const Invalid PageID = -1

// State is a store's position in the quarantine lifecycle.
type State int32

// Quarantine lifecycle states.
const (
	// StateHealthy: the store serves reads normally.
	StateHealthy State = iota
	// StateQuarantined: a checksum failure took the store out of service;
	// every access fails fast with errs.ErrStructureUnavailable until a
	// repair moves it to half-open.
	StateQuarantined
	// StateHalfOpen: the store was repaired and tentatively serves reads
	// again, but has not yet proven itself: a successful probe query moves
	// it to healthy (CloseCircuit), another checksum failure trips it
	// straight back to quarantined.
	StateHalfOpen
)

// String names the state for health reports.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateQuarantined:
		return "quarantined"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Store is a collection of pages belonging to one storage structure,
// append-only but for the pages their owner explicitly frees. Page payloads
// are opaque to the pager; structures typically store encoded bytes or, for
// structures whose size experiments do not need byte-exact encoding, record
// only a logical payload size.
type Store struct {
	kind     stats.Structure
	pageSize int

	// mu guards the page tables and the fault injector: concurrent queries
	// read pages while maintenance appends, frees or resets them, and the
	// injector may be swapped while queries run (the chaos harness does
	// exactly that).
	mu    sync.RWMutex
	pages [][]byte
	sizes []int
	// sums holds the crc32c checksum of each payload page (0 for
	// payload-free logical pages, which have nothing to verify).
	sums []uint32
	// free lists the ids released by Free, which Append hands out again
	// before growing the tables. A freed page has size freedSize.
	free     []PageID
	injector FaultInjector

	// state is the quarantine lifecycle position; atomic because every
	// read consults it on its fail-fast path.
	state atomic.Int32
}

// The transient-fault retry schedule: up to RetryLimit retries of one access,
// sleeping retryBackoff<<attempt before each. The backoff is tiny: the pager
// simulates storage, so the schedule's shape (bounded attempts, exponential
// spacing) matters more than its absolute duration.
const (
	RetryLimit   = 3
	retryBackoff = 50 * time.Microsecond
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// NewStore returns an empty store labelled with the structure kind used for
// read accounting.
func NewStore(kind stats.Structure, pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = PageSize
	}
	return &Store{kind: kind, pageSize: pageSize}
}

// SetFaultInjector attaches (or, with nil, removes) a fault injector. Safe
// to call while queries run; in-flight page accesses finish under the
// injector they started with.
func (s *Store) SetFaultInjector(inj FaultInjector) {
	s.mu.Lock()
	s.injector = inj
	s.mu.Unlock()
}

// State reports the store's position in the quarantine lifecycle.
func (s *Store) State() State { return State(s.state.Load()) }

// Quarantined reports whether the store has been taken out of service
// after a checksum failure (half-open stores serve reads and report false).
func (s *Store) Quarantined() bool { return s.State() == StateQuarantined }

// trip moves the store to quarantined from any state, recording the event
// once per transition (re-tripping an already-quarantined store is a no-op,
// so the quarantine counter counts outages, not corrupt reads).
func (s *Store) trip() {
	for {
		old := s.state.Load()
		if State(old) == StateQuarantined {
			return
		}
		if s.state.CompareAndSwap(old, int32(StateQuarantined)) {
			obs.Default().RecordQuarantine(s.kind)
			return
		}
	}
}

// EnterHalfOpen moves a quarantined store to half-open after repair: reads
// are admitted again, but full service awaits a successful probe
// (CloseCircuit). It reports whether the transition happened (false when
// the store was not quarantined).
func (s *Store) EnterHalfOpen() bool {
	return s.state.CompareAndSwap(int32(StateQuarantined), int32(StateHalfOpen))
}

// CloseCircuit returns a half-open store to full service after a probe
// query succeeded, recording the recovery in the metrics registry. It
// reports whether the transition happened.
func (s *Store) CloseCircuit() bool {
	if !s.state.CompareAndSwap(int32(StateHalfOpen), int32(StateHealthy)) {
		return false
	}
	obs.Default().RecordQuarantineClear(s.kind)
	return true
}

// Requarantine trips the store back to quarantined from any state — the
// repair path calls it when a half-open store fails its probe query.
func (s *Store) Requarantine() { s.trip() }

// Kind reports the structure label of this store.
func (s *Store) Kind() stats.Structure { return s.kind }

// PageSize reports the configured page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// freedSize marks a page released by Free: it holds nothing and occupies no
// block until Append reuses its id.
const freedSize = -1

// Append writes data as a new page and returns its id, reusing a freed id
// when there is one. Payloads larger than the page size are permitted; they
// count as multiple blocks on read (ceil(len/pageSize)), modelling
// multi-page overflow records.
func (s *Store) Append(data []byte) PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := crc32.Checksum(data, crcTable)
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.pages[id], s.sizes[id], s.sums[id] = data, len(data), sum
		return id
	}
	id := PageID(len(s.pages))
	s.pages = append(s.pages, data)
	s.sizes = append(s.sizes, len(data))
	s.sums = append(s.sums, sum)
	return id
}

// Free releases page id: its payload and checksum are dropped, it stops
// counting towards Bytes and Blocks, and a later Append reuses the id. The
// owner must hold no reference to the page any more — maintenance frees a
// cell's old pages once the rewritten cell is installed, under the exclusive
// guard that keeps queries out.
func (s *Store) Free(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sizes[id] == freedSize {
		return
	}
	s.pages[id], s.sizes[id], s.sums[id] = nil, freedSize, 0
	s.free = append(s.free, id)
}

// AppendLogical records a page holding size logical bytes without storing a
// payload. Used by structures whose contents live in native Go form but whose
// block I/O and footprint must still be accounted.
func (s *Store) AppendLogical(size int) PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := PageID(len(s.pages))
	s.pages = append(s.pages, nil)
	s.sizes = append(s.sizes, size)
	s.sums = append(s.sums, 0)
	return id
}

// Resize updates the logical size of a payload-free page (cells grow under
// incremental maintenance).
func (s *Store) Resize(id PageID, size int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sizes[id] = size
}

// Reset truncates the store to zero pages while keeping its identity —
// kind, page size, fault injector, and quarantine state all survive. The repair path uses it: the owning structure resets the store
// and re-materializes its content from the base data, so every reference to
// the store (fault injection attachments, health monitors) stays valid.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = s.pages[:0]
	s.sizes = s.sizes[:0]
	s.sums = s.sums[:0]
	s.free = s.free[:0]
}

// VerifyPages re-verifies every payload page's checksum — the first step of
// quarantine repair — and returns the ids that fail. The attached fault
// injector participates (persistent corruption stays visible to
// verification); transient read faults do not (verification models a
// maintenance pass with unbounded patience, not a query). No reads are
// charged and the quarantine fail-fast does not apply: this is exactly the
// path that runs while the store is out of service.
func (s *Store) VerifyPages() []PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bad []PageID
	for i, data := range s.pages {
		if data == nil {
			continue
		}
		id := PageID(i)
		if s.injector != nil {
			data = s.injector.MutatePayload(id, data)
		}
		if crc32.Checksum(data, crcTable) != s.sums[i] {
			bad = append(bad, id)
		}
	}
	return bad
}

// Read fetches the payload of page id, charging the read to c. The
// payload's checksum is verified; a mismatch (bit rot, or an injected
// corruption) quarantines the store and aborts the query with a typed
// errs.ErrPageCorrupt.
func (s *Store) Read(id PageID, c *stats.Counters) []byte {
	data, sum, inj := s.access(id, c)
	if inj != nil && data != nil {
		data = inj.MutatePayload(id, data)
	}
	if data != nil && crc32.Checksum(data, crcTable) != sum {
		s.trip()
		errs.Abortf(errs.ErrPageCorrupt, "pager: %s page %d checksum mismatch", s.kind, id)
	}
	return data
}

// Touch charges a read of page id without returning a payload (for
// logical-size pages). Fault injection and quarantine apply; checksum
// verification does not (there is no payload to verify).
func (s *Store) Touch(id PageID, c *stats.Counters) {
	s.access(id, c)
}

// access runs the physical read protocol for one page: fail fast when the
// store is quarantined, snapshot the page under one page-table lock, ride out
// injected transient faults with bounded exponential backoff, then charge the
// blocks to c — the block-access granularity at which cancellation and budgets
// are enforced. It returns the payload snapshot with its checksum and the
// injector, so the caller's payload mutation sees the injector the access
// rode out. A nil c would charge the access to nobody, so it aborts.
func (s *Store) access(id PageID, c *stats.Counters) (data []byte, sum uint32, inj FaultInjector) {
	if c == nil {
		errs.Abortf(errs.ErrInternal, "pager: %s page %d accessed with nil counters", s.kind, id)
	}
	if s.Quarantined() {
		errs.Abortf(errs.ErrStructureUnavailable, "pager: %s store quarantined", s.kind)
	}
	s.mu.RLock()
	data, sum, blocks, inj := s.pages[id], s.sums[id], s.blockSpan(id), s.injector
	s.mu.RUnlock()
	if inj != nil {
		for attempt := 0; ; attempt++ {
			err := inj.ReadAttempt(id, attempt)
			if err == nil {
				break
			}
			if attempt >= RetryLimit {
				errs.Abortf(errs.ErrReadFailed, "pager: %s page %d failed after %d attempts: %v",
					s.kind, id, attempt+1, err)
			}
			c.AddRetry()
			time.Sleep(retryBackoff << uint(attempt))
		}
	}
	c.Read(s.kind, blocks)
	return data, sum, inj
}

// NumPages reports the size of the page table, freed pages included.
func (s *Store) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Bytes reports the total logical bytes stored.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t int64
	for _, sz := range s.sizes {
		if sz != freedSize {
			t += int64(sz)
		}
	}
	return t
}

// Blocks reports the total number of disk blocks the store occupies.
func (s *Store) Blocks() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t int64
	for id, sz := range s.sizes {
		if sz != freedSize {
			t += s.blockSpan(PageID(id))
		}
	}
	return t
}

// blockSpan computes the block span of page id; the caller holds mu.
func (s *Store) blockSpan(id PageID) int64 {
	sz := s.sizes[id]
	if sz <= 0 {
		return 1
	}
	return int64((sz + s.pageSize - 1) / s.pageSize)
}

// Buffer is the retrieved-block buffer of §5.1.3: the first access to a page is
// charged, repeats are free. The thesis' query algorithms buffer retrieved
// blocks for the duration of one query; a buffer seeded with Hold carries them
// on, into the next step of an OLAP navigation chain. A Buffer belongs to one
// query on one goroutine, like the stats.Counters it charges. A page is either
// read or touched through one buffer, not both: only Read keeps a payload to
// serve again.
type Buffer struct {
	store *Store
	// touched has one bit per page id that was only touched; sized on the
	// first Touch.
	touched []uint64
	// data holds the payloads of pages that were Read; nil until the first.
	data map[PageID][]byte
}

// NewBuffer wraps store with a fresh (empty) per-query buffer.
func NewBuffer(store *Store) *Buffer { return &Buffer{store: store} }

// Reset rebinds b to store, empty, as NewBuffer would return it, but keeping
// the storage of its bits and payload map for the pages of the next query.
// Reset(nil) lets go of the store.
func (b *Buffer) Reset(store *Store) {
	b.store = store
	clear(b.touched)
	clear(b.data)
}

// Read fetches a page, charging only the first access to c. Repeat reads
// serve the buffered payload the query already verified.
func (b *Buffer) Read(id PageID, c *stats.Counters) []byte {
	if data, ok := b.data[id]; ok {
		return data
	}
	data := b.store.Read(id, c)
	if b.data == nil {
		b.data = make(map[PageID][]byte)
	}
	b.data[id] = data
	return data
}

// Touch charges the first access of page id to c.
func (b *Buffer) Touch(id PageID, c *stats.Counters) {
	w, bit := int(id>>6), uint64(1)<<(uint(id)&63)
	if w >= len(b.touched) {
		if b.store == nil {
			errs.Abortf(errs.ErrInternal, "pager: page %d touched through a buffer whose pages were handed over", id)
		}
		// Room for every page the store holds now, so a query grows it once.
		n := max(w+1, (b.store.NumPages()+63)/64)
		b.touched = append(b.touched, make([]uint64, n-len(b.touched))...)
	}
	if b.touched[w]&bit == 0 {
		b.touched[w] |= bit
		b.store.Touch(id, c)
	}
}

// Hold marks the pages whose bits are set in held as touched, uncharged: the
// pages an earlier step of the caller's chain retrieved, as Touched returned
// them, over the store as it stands. The buffer keeps a copy.
func (b *Buffer) Hold(held []uint64) { b.touched = append(b.touched[:0], held...) }

// Touched hands over the bits of the pages touched so far, held ones included,
// one per page id: Hold's argument for the next step of a chain. The buffer is
// spent: it lets go of the bits and its store, and a later Touch aborts instead
// of writing into bits the caller now owns.
func (b *Buffer) Touched() []uint64 {
	touched := b.touched
	b.store, b.touched = nil, nil
	return touched
}

// Seen reports whether page id has already been accessed through the buffer.
func (b *Buffer) Seen(id PageID) bool {
	if _, ok := b.data[id]; ok {
		return true
	}
	w := int(id >> 6)
	return w < len(b.touched) && b.touched[w]&(1<<(uint(id)&63)) != 0
}
