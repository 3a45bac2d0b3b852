package guard

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rankcube/internal/admission"
	"rankcube/internal/errs"
	"rankcube/internal/obs"
)

// free reports whether nobody holds g, shared or exclusive.
func free(g *RW) bool {
	if !g.mu.TryLock() {
		return false
	}
	g.mu.Unlock()
	return true
}

// finishes fails the test if fn has not returned within five seconds: the
// lock it waits for is never coming.
func finishes(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5 s", what)
	}
}

func gate(t *testing.T, inflight int) *admission.Gate {
	t.Helper()
	return admission.NewGate(t.Name(), admission.Config{MaxInFlight: inflight}, obs.NewRegistry())
}

func TestSharedHoldersRunTogether(t *testing.T) {
	g := New()
	// Each holder waits inside its shared section for the other to get in.
	in := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	finishes(t, "two shared holders", func() {
		var wg sync.WaitGroup
		for i := range in {
			wg.Add(1)
			go func() {
				defer wg.Done()
				release, err := AcquireShared(context.Background(), []*RW{g})
				if err != nil {
					t.Error(err)
					return
				}
				defer release()
				close(in[i])
				<-in[1-i]
			}()
		}
		wg.Wait()
	})
	if !free(g) {
		t.Fatal("control still held after both holders released")
	}
}

func TestExclusiveExcludesSharedAndBack(t *testing.T) {
	g := New()
	g.lock()
	if g.mu.TryRLock() {
		t.Fatal("shared hold granted beside an exclusive one")
	}
	g.unlock()
	g.rlock()
	if g.mu.TryLock() {
		t.Fatal("exclusive hold granted beside a shared one")
	}
	if !g.mu.TryRLock() {
		t.Fatal("second shared hold refused beside the first")
	}
	g.mu.RUnlock()
	g.runlock()
	if !free(g) {
		t.Fatal("control still held after every release")
	}
	// A nil control is nobody's: every method is a no-op.
	var none *RW
	none.lock()
	none.unlock()
	none.rlock()
	none.runlock()
	none.SetGate(nil)
	if none.Gate() != nil {
		t.Fatal("nil control reports a gate")
	}
}

// TestSharedAndExclusiveReleaseOnAbort runs a function that aborts under each
// hold: the abort reaches the caller, and a writer on another goroutine then
// gets the control, so the hold did not outlive the abort. Without an abort
// the function runs under the hold and its result comes back; a nil control
// holds nothing and runs the function all the same.
func TestSharedAndExclusiveReleaseOnAbort(t *testing.T) {
	g := New()
	fault := func() { errs.Abortf(errs.ErrPageCorrupt, "fault under the hold") }
	for name, run := range map[string]func(){
		"Shared":    func() { Shared(g, func() int { fault(); return 0 }) },
		"Exclusive": func() { Exclusive(g, fault) },
	} {
		func() {
			defer func() {
				if err := errs.FromPanic(recover()); !errors.Is(err, errs.ErrPageCorrupt) {
					t.Errorf("%s: abort %v, want ErrPageCorrupt", name, err)
				}
			}()
			run()
		}()
		finishes(t, name+": a writer after the abort", func() { LockExclusive([]*RW{g})() })
	}
	if got := Shared(g, func() bool { return g.mu.TryLock() }); got || !free(g) {
		t.Fatalf("Shared: exclusive hold granted inside %v, control free after %v", got, free(g))
	}
	Exclusive(g, func() {
		if g.mu.TryRLock() {
			t.Error("Exclusive: shared hold granted inside")
		}
	})
	if !free(g) {
		t.Fatal("control still held after Exclusive returned")
	}
	var none *RW
	ran := false
	Exclusive(none, func() { ran = true })
	if got := Shared(none, func() int { return 7 }); got != 7 || !ran {
		t.Fatalf("nil control: Shared returned %d, Exclusive ran %v", got, ran)
	}
}

func TestOrderDedupsAndSortsByID(t *testing.T) {
	a, b, c := New(), New(), New()
	if !(a.id < b.id && b.id < c.id) {
		t.Fatalf("IDs %d %d %d do not ascend in creation order", a.id, b.id, c.id)
	}
	if got := Order(c, a, nil, c, b, a); !slices.Equal(got, []*RW{a, b, c}) {
		t.Fatalf("Order = %v, want each control once, ascending by ID", got)
	}
	if got := Order(); len(got) != 0 {
		t.Fatalf("Order() = %v", got)
	}
}

// TestRepeatedControlAcquiredOnce names one control twice: taken twice, its
// one-slot gate would refuse the query its own second slot, and its lock would
// wait for itself.
func TestRepeatedControlAcquiredOnce(t *testing.T) {
	a, b := New(), New()
	gb := gate(t, 1)
	b.SetGate(gb)
	var release func()
	finishes(t, "AcquireShared(b, a, b)", func() {
		var err error
		if release, err = AcquireShared(context.Background(), []*RW{b, a, b}); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	if gb.InFlight() != 1 || free(a) || free(b) {
		t.Fatalf("gate holds %d, a free %v, b free %v: want one slot and both controls held", gb.InFlight(), free(a), free(b))
	}
	release()
	if gb.InFlight() != 0 || !free(a) || !free(b) {
		t.Fatalf("after release: gate holds %d, a free %v, b free %v", gb.InFlight(), free(a), free(b))
	}
	finishes(t, "LockExclusive(b, a, b)", func() { release = LockExclusive([]*RW{b, a, b}) })
	if a.mu.TryRLock() || b.mu.TryRLock() {
		t.Fatal("a shared hold granted beside LockExclusive")
	}
	release()
	if gb.InFlight() != 0 || !free(a) || !free(b) {
		t.Fatalf("after unlock: gate holds %d (maintenance is not gated), a free %v, b free %v", gb.InFlight(), free(a), free(b))
	}
}

// TestAcquiresInAscendingIDOrder holds the later control and asks for the
// pair, later one named first: the earlier control is taken while the later
// one is still waited for, whichever of the two entry points asks.
func TestAcquiresInAscendingIDOrder(t *testing.T) {
	a, b := New(), New()
	for name, acquire := range map[string]func() func(){
		"LockExclusive": func() func() { return LockExclusive([]*RW{b, a}) },
		"AcquireShared": func() func() {
			release, err := AcquireShared(context.Background(), []*RW{b, a})
			if err != nil {
				t.Error(err)
				return func() {}
			}
			return release
		},
	} {
		b.lock()
		got := make(chan func())
		go func() { got <- acquire() }()
		finishes(t, name+": taking the earlier control first", func() {
			for a.mu.TryLock() {
				a.mu.Unlock()
				runtime.Gosched()
			}
		})
		b.unlock()
		var release func()
		finishes(t, name+": taking the later control once it is free", func() { release = <-got })
		release()
		if !free(a) || !free(b) {
			t.Fatalf("%s: a free %v, b free %v after release", name, free(a), free(b))
		}
	}
}

// TestOppositeArgumentOrdersNeverDeadlock has writers and readers take the
// same pair of controls named in opposite orders, many times over.
func TestOppositeArgumentOrdersNeverDeadlock(t *testing.T) {
	a, b := New(), New()
	shared := 0 // written under both exclusive holds, read under both shared ones
	finishes(t, "four goroutines over one pair", func() {
		var wg sync.WaitGroup
		for _, pair := range [][]*RW{{a, b}, {b, a}} {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for range 500 {
					release := LockExclusive(pair)
					shared++
					release()
				}
			}()
			go func() {
				defer wg.Done()
				for range 500 {
					release, err := AcquireShared(context.Background(), pair)
					if err != nil {
						t.Error(err)
						return
					}
					_ = shared
					release()
				}
			}()
		}
		wg.Wait()
	})
	if shared != 1000 {
		t.Fatalf("%d exclusive sections ran, want 1000", shared)
	}
}

// TestSingleControlAcquire: one control is admitted and read-locked like a
// pair, refused like a pair by a full gate with nothing held, and costs one
// allocation, the release.
func TestSingleControlAcquire(t *testing.T) {
	g, gt := New(), gate(t, 1)
	g.SetGate(gt)
	release, err := AcquireShared(context.Background(), []*RW{g})
	if err != nil || gt.InFlight() != 1 || free(g) {
		t.Fatalf("admitted: err %v, gate holds %d, free %v", err, gt.InFlight(), free(g))
	}
	if again, err := AcquireShared(context.Background(), []*RW{g}); !errors.Is(err, errs.ErrOverloaded) || again != nil {
		t.Fatalf("against a full gate: release %v, err %v, want ErrOverloaded and no release", again != nil, err)
	}
	release()
	if gt.InFlight() != 0 || !free(g) {
		t.Fatalf("released: gate holds %d, free %v", gt.InFlight(), free(g))
	}
	g.SetGate(nil)
	ctls := []*RW{g}
	if n := testing.AllocsPerRun(100, func() {
		release, _ := AcquireShared(context.Background(), ctls)
		release()
	}); n != 1 {
		t.Fatalf("AcquireShared of one control makes %v allocations, want 1", n)
	}
}

// TestGateRejectionLeavesNothingHeld fills the second control's gate: the
// query is refused with the gate's typed error, the slot it had taken in the
// first control's gate is given back, and no lock was taken — a writer has
// both controls at once.
func TestGateRejectionLeavesNothingHeld(t *testing.T) {
	a, b := New(), New()
	ga, gb := gate(t, 2), gate(t, 1)
	a.SetGate(ga)
	b.SetGate(gb)
	occupy, err := gb.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release, err := AcquireShared(context.Background(), []*RW{a, b})
	if !errors.Is(err, errs.ErrOverloaded) || release != nil {
		t.Fatalf("AcquireShared against a full gate: release %v, err %v, want ErrOverloaded and no release", release != nil, err)
	}
	if ga.InFlight() != 0 || gb.InFlight() != 1 {
		t.Fatalf("gates hold %d and %d slots, want 0 and the occupier's 1", ga.InFlight(), gb.InFlight())
	}
	if !free(a) || !free(b) {
		t.Fatalf("a free %v, b free %v after the rejection", free(a), free(b))
	}
	finishes(t, "a writer after the rejection", func() { LockExclusive([]*RW{a, b})() })

	// With room again the same query gets through, holds a slot in each gate,
	// and its release gives back slots and locks alike.
	occupy()
	if release, err = AcquireShared(context.Background(), []*RW{a, b}); err != nil {
		t.Fatal(err)
	}
	if ga.InFlight() != 1 || gb.InFlight() != 1 || free(a) || free(b) {
		t.Fatalf("admitted: gates hold %d and %d, a free %v, b free %v", ga.InFlight(), gb.InFlight(), free(a), free(b))
	}
	release()
	if ga.InFlight() != 0 || gb.InFlight() != 0 || !free(a) || !free(b) {
		t.Fatalf("released: gates hold %d and %d, a free %v, b free %v", ga.InFlight(), gb.InFlight(), free(a), free(b))
	}
}
