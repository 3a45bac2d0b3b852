package pager

import (
	"errors"
	"testing"

	"rankcube/internal/errs"
	"rankcube/internal/stats"
)

func TestStoreAppendRead(t *testing.T) {
	s := NewStore(stats.StructCube, 64)
	id := s.Append([]byte("hello"))
	ctr := stats.New()
	if got := string(s.Read(id, ctr)); got != "hello" {
		t.Fatalf("Read = %q", got)
	}
	if ctr.Reads(stats.StructCube) != 1 {
		t.Fatalf("reads = %d", ctr.Reads(stats.StructCube))
	}
	if s.NumPages() != 1 || s.Bytes() != 5 {
		t.Fatalf("NumPages=%d Bytes=%d", s.NumPages(), s.Bytes())
	}
}

func TestMultiBlockCharge(t *testing.T) {
	s := NewStore(stats.StructCube, 64)
	id := s.AppendLogical(200) // 200 bytes over 64-byte pages = 4 blocks
	ctr := stats.New()
	s.Touch(id, ctr)
	if got := ctr.Reads(stats.StructCube); got != 4 {
		t.Fatalf("blocks charged = %d, want 4", got)
	}
	if s.Blocks() != 4 {
		t.Fatalf("Blocks = %d", s.Blocks())
	}
}

func TestZeroSizePageChargesOne(t *testing.T) {
	s := NewStore(stats.StructCube, 64)
	id := s.AppendLogical(0)
	ctr := stats.New()
	s.Touch(id, ctr)
	if ctr.Reads(stats.StructCube) != 1 {
		t.Fatalf("zero-size page charged %d", ctr.Reads(stats.StructCube))
	}
}

func TestBufferDeduplicates(t *testing.T) {
	s := NewStore(stats.StructRTree, 64)
	a := s.Append([]byte{1})
	b := s.Append([]byte{2})
	buf := NewBuffer(s)
	ctr := stats.New()
	buf.Read(a, ctr)
	buf.Read(a, ctr)
	buf.Touch(b, ctr)
	buf.Touch(b, ctr)
	if got := ctr.Reads(stats.StructRTree); got != 2 {
		t.Fatalf("reads = %d, want 2 (one per distinct page)", got)
	}
	if !buf.Seen(a) || !buf.Seen(b) || buf.Seen(PageID(99)) {
		t.Fatal("Seen mismatch")
	}
}

// TestBufferResetStartsOver: a buffer reset, to its own store or to another,
// charges every page again as a fresh one would, its read payloads included.
func TestBufferResetStartsOver(t *testing.T) {
	s, other := NewStore(stats.StructRTree, 64), NewStore(stats.StructBTree, 64)
	a, b := s.Append([]byte{1}), s.Append([]byte{2})
	c := other.Append([]byte{3})
	buf, ctr := NewBuffer(s), stats.New()
	buf.Read(a, ctr)
	buf.Touch(b, ctr)
	buf.Reset(s)
	if buf.Seen(a) || buf.Seen(b) {
		t.Fatal("Reset kept a page seen")
	}
	buf.Read(a, ctr)
	buf.Touch(b, ctr)
	buf.Touch(b, ctr)
	if got := ctr.Reads(stats.StructRTree); got != 4 {
		t.Fatalf("reads = %d, want 4: each page once before the reset and once after", got)
	}
	buf.Reset(other)
	buf.Read(c, ctr)
	buf.Read(c, ctr)
	if got := ctr.Reads(stats.StructBTree); got != 1 {
		t.Fatalf("after a reset to another store: %d reads of it, want 1", got)
	}
}

// TestBufferHandsOverHeldPages: a buffer seeded with Hold charges nothing for
// the pages an earlier step retrieved, and Touched hands the bits over for
// good: the buffer is spent, so a later Touch aborts instead of changing bits
// another step now holds.
func TestBufferHandsOverHeldPages(t *testing.T) {
	s := NewStore(stats.StructRTree, 64)
	ids := []PageID{s.Append([]byte{1}), s.Append([]byte{2}), s.Append([]byte{3})}
	first, ctr := NewBuffer(s), stats.New()
	first.Touch(ids[0], ctr)
	held := first.Touched()
	next := NewBuffer(s)
	next.Hold(held)
	next.Touch(ids[0], ctr)
	next.Touch(ids[1], ctr)
	if got := ctr.Reads(stats.StructRTree); got != 2 {
		t.Fatalf("reads = %d, want 2: the held page is free", got)
	}
	both := next.Touched()
	if held[0] != 1<<ids[0] || both[0] != 1<<ids[0]|1<<ids[1] {
		t.Fatalf("held bits %b, then %b", held[0], both[0])
	}
	if err := abortOf(t, func() { next.Touch(ids[2], ctr) }); !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("Touch after the hand-over: abort %v, want ErrInternal", err)
	}
	if both[0] != 1<<ids[0]|1<<ids[1] {
		t.Fatalf("handed-over bits changed to %b", both[0])
	}
}

// TestNilCountersAbort: a read charged to nobody would escape the query's
// budget and every reported count, so each charged access refuses nil
// counters with a typed internal fault, the buffer's first access included.
func TestNilCountersAbort(t *testing.T) {
	s := NewStore(stats.StructTable, 64)
	id := s.Append([]byte("x"))
	for name, access := range map[string]func(){
		"Store.Read":   func() { s.Read(id, nil) },
		"Store.Touch":  func() { s.Touch(id, nil) },
		"Buffer.Read":  func() { NewBuffer(s).Read(id, nil) },
		"Buffer.Touch": func() { NewBuffer(s).Touch(id, nil) },
	} {
		if err := abortOf(t, access); !errors.Is(err, errs.ErrInternal) {
			t.Errorf("%s with nil counters: abort %v, want ErrInternal", name, err)
		}
	}
}

func TestFreeReusesIDAndStopsCounting(t *testing.T) {
	s := NewStore(stats.StructSignature, 64)
	a := s.Append([]byte("first page"))
	b := s.Append(make([]byte, 100)) // two blocks
	if s.Bytes() != 110 || s.Blocks() != 3 {
		t.Fatalf("before Free: Bytes=%d Blocks=%d", s.Bytes(), s.Blocks())
	}
	s.Free(b)
	s.Free(b) // freeing twice must not list the id twice
	if s.Bytes() != 10 || s.Blocks() != 1 || s.NumPages() != 2 {
		t.Fatalf("after Free: Bytes=%d Blocks=%d NumPages=%d", s.Bytes(), s.Blocks(), s.NumPages())
	}
	if bad := s.VerifyPages(); len(bad) != 0 {
		t.Fatalf("VerifyPages flags %v with a freed page present", bad)
	}

	// The next Append takes the freed id, with the new payload's checksum.
	c := s.Append([]byte("second tenant"))
	if c != b {
		t.Fatalf("Append returned id %d, want the freed id %d", c, b)
	}
	if got := string(s.Read(c, stats.New())); got != "second tenant" {
		t.Fatalf("reused page reads %q", got)
	}
	if bad := s.VerifyPages(); len(bad) != 0 {
		t.Fatalf("VerifyPages flags %v after reuse", bad)
	}
	// The free list is empty again: the table grows.
	if d := s.Append([]byte("x")); d != 2 {
		t.Fatalf("Append with an empty free list returned id %d, want 2", d)
	}
	if s.Bytes() != 10+13+1 {
		t.Fatalf("Bytes=%d after reuse", s.Bytes())
	}
	_ = a
}

func TestResetClearsFreeList(t *testing.T) {
	s := NewStore(stats.StructSignature, 64)
	s.Append([]byte("a"))
	s.Free(s.Append([]byte("b")))
	s.Reset()
	if id := s.Append([]byte("c")); id != 0 {
		t.Fatalf("first Append after Reset returned id %d: a stale free id survived", id)
	}
	if s.NumPages() != 1 || s.Bytes() != 1 {
		t.Fatalf("after Reset+Append: NumPages=%d Bytes=%d", s.NumPages(), s.Bytes())
	}
}
