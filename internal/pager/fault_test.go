package pager

import (
	"bytes"
	"errors"
	"testing"

	"rankcube/internal/errs"
	"rankcube/internal/stats"
)

func abortOf(t *testing.T, fn func()) error {
	t.Helper()
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if err, ok = errs.IsAbort(r); !ok {
					panic(r)
				}
			}
		}()
		fn()
	}()
	return err
}

func TestChecksumRoundTrip(t *testing.T) {
	s := NewStore(stats.StructSignature, 0)
	payload := []byte("signature bytes")
	id := s.Append(payload)
	ctr := stats.New()
	if got := s.Read(id, ctr); !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
}

func TestCorruptionDetectedAndQuarantines(t *testing.T) {
	s := NewStore(stats.StructSignature, 0)
	good := s.Append([]byte("healthy page"))
	bad := s.Append([]byte("doomed page"))
	s.SetFaultInjector(&ScriptedFaults{Corrupt: map[PageID]bool{bad: true}})
	ctr := stats.New()

	if err := abortOf(t, func() { s.Read(good, ctr) }); err != nil {
		t.Fatalf("healthy page aborted: %v", err)
	}
	err := abortOf(t, func() { s.Read(bad, ctr) })
	if !errors.Is(err, errs.ErrPageCorrupt) {
		t.Fatalf("err = %v, want ErrPageCorrupt", err)
	}
	if !s.Quarantined() {
		t.Fatal("store not quarantined after corruption")
	}
	// Even healthy pages now fail fast.
	err = abortOf(t, func() { s.Read(good, ctr) })
	if !errors.Is(err, errs.ErrStructureUnavailable) {
		t.Fatalf("err = %v, want ErrStructureUnavailable", err)
	}
	// Touch of a logical page fails fast too.
	lid := s.AppendLogical(64)
	err = abortOf(t, func() { s.Touch(lid, ctr) })
	if !errors.Is(err, errs.ErrStructureUnavailable) {
		t.Fatalf("touch err = %v, want ErrStructureUnavailable", err)
	}

	s.ClearQuarantine()
	s.SetFaultInjector(nil)
	if err := abortOf(t, func() { s.Read(bad, ctr) }); err != nil {
		t.Fatalf("repaired store still failing: %v", err)
	}
}

func TestTransientFaultRetriesThenSucceeds(t *testing.T) {
	s := NewStore(stats.StructRTree, 0)
	id := s.Append([]byte("flaky page"))
	s.SetFaultInjector(&ScriptedFaults{FailFirst: map[PageID]int{id: 2}})
	ctr := stats.New()
	if err := abortOf(t, func() { s.Read(id, ctr) }); err != nil {
		t.Fatalf("recoverable fault aborted: %v", err)
	}
	if ctr.Retries != 2 {
		t.Fatalf("retries = %d, want 2", ctr.Retries)
	}
	if got := ctr.Reads(stats.StructRTree); got != 1 {
		t.Fatalf("reads = %d, want 1 (retries are not extra block reads)", got)
	}
}

func TestTransientFaultExhaustsRetries(t *testing.T) {
	s := NewStore(stats.StructRTree, 0)
	id := s.Append([]byte("dead page"))
	s.SetFaultInjector(&ScriptedFaults{FailFirst: map[PageID]int{id: 100}})
	ctr := stats.New()
	err := abortOf(t, func() { s.Read(id, ctr) })
	if !errors.Is(err, errs.ErrReadFailed) {
		t.Fatalf("err = %v, want ErrReadFailed", err)
	}
	if ctr.Retries != RetryLimit {
		t.Fatalf("retries = %d, want %d (the retry limit)", ctr.Retries, RetryLimit)
	}
	if ctr.TotalReads() != 0 {
		t.Fatalf("reads = %d, want 0 for a read that never succeeded", ctr.TotalReads())
	}
	if s.Quarantined() {
		t.Fatal("transient-fault exhaustion must not quarantine (no corruption evidence)")
	}
}

func TestOnReadHookObservesAttempts(t *testing.T) {
	s := NewStore(stats.StructBTree, 0)
	id := s.Append([]byte("watched page"))
	var seen []int
	s.SetFaultInjector(&ScriptedFaults{
		FailFirst: map[PageID]int{id: 1},
		OnRead:    func(_ PageID, attempt int) { seen = append(seen, attempt) },
	})
	if err := abortOf(t, func() { s.Read(id, stats.New()) }); err != nil {
		t.Fatalf("unexpected abort: %v", err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("observed attempts %v, want [0 1]", seen)
	}
}

func TestLogicalPagesHaveNoChecksum(t *testing.T) {
	s := NewStore(stats.StructBlockTab, 0)
	id := s.AppendLogical(4096 * 3)
	s.SetFaultInjector(&ScriptedFaults{CorruptAll: true})
	ctr := stats.New()
	if err := abortOf(t, func() { s.Touch(id, ctr) }); err != nil {
		t.Fatalf("logical page access aborted: %v", err)
	}
	if got := ctr.Reads(stats.StructBlockTab); got != 3 {
		t.Fatalf("reads = %d, want 3 blocks for a 3-page logical record", got)
	}
}
