package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rankcube/internal/errs"
	"rankcube/internal/obs"
)

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil gate Acquire: %v", err)
	}
	release()
	if g.InFlight() != 0 || g.Waiting() != 0 || g.Draining() {
		t.Fatalf("nil gate reported state: inflight=%d waiting=%d draining=%v",
			g.InFlight(), g.Waiting(), g.Draining())
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatalf("nil gate Drain: %v", err)
	}
}

func TestDisabledConfigReturnsNil(t *testing.T) {
	if g := NewGate("x", Config{MaxInFlight: 0}, nil); g != nil {
		t.Fatalf("MaxInFlight=0 should disable gating, got %v", g)
	}
}

func TestAdmitsUpToCapacityThenRejects(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate("t", Config{MaxInFlight: 2, MaxWaiting: 0}, reg)

	r1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	r2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Queue size 0: the third arrival is shed immediately.
	if _, err := g.Acquire(context.Background()); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("third Acquire err = %v, want ErrOverloaded", err)
	}
	if n := reg.Counter("admission.t.rejected_queue_full").Value(); n != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", n)
	}

	r1()
	r1() // release is idempotent
	r2()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	if n := reg.Counter("admission.t.admitted").Value(); n != 2 {
		t.Fatalf("admitted = %d, want 2", n)
	}
}

func TestWaiterAdmittedWhenSlotFrees(t *testing.T) {
	g := NewGate("t", Config{MaxInFlight: 1, MaxWaiting: 4}, obs.NewRegistry())
	r1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	got := make(chan error, 1)
	go func() {
		release, err := g.Acquire(context.Background())
		if err == nil {
			release()
		}
		got <- err
	}()

	// Wait until the second query is parked, then free the slot.
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	r1()
	if err := <-got; err != nil {
		t.Fatalf("parked Acquire: %v", err)
	}
	if g.Waiting() != 0 {
		t.Fatalf("Waiting = %d after completion, want 0", g.Waiting())
	}
}

func TestWaiterCanceledWhileParked(t *testing.T) {
	g := NewGate("t", Config{MaxInFlight: 1, MaxWaiting: 4}, obs.NewRegistry())
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		got <- err
	}()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestDeadlineAwareRejection(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate("t", Config{MaxInFlight: 1, MaxWaiting: 8}, reg)

	// Seed the EWMA with a long service time: one admit/release pair.
	g.ewmaServiceUS.Store((50 * time.Millisecond).Microseconds())

	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer release()

	// Deadline far shorter than the estimated 50ms wait: reject now.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("doomed waiter err = %v, want ErrOverloaded", err)
	}
	if n := reg.Counter("admission.t.rejected_deadline").Value(); n != 1 {
		t.Fatalf("rejected_deadline = %d, want 1", n)
	}

	// A deadline comfortably beyond the estimate parks instead.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	got := make(chan error, 1)
	go func() {
		r, err := g.Acquire(ctx2)
		if err == nil {
			r()
		}
		got <- err
	}()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-got; err != nil {
		t.Fatalf("viable waiter err = %v, want nil", err)
	}
}

func TestDrainRejectsAndWaitsForInflight(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate("t", Config{MaxInFlight: 2, MaxWaiting: 4}, reg)

	r1, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	// A parked waiter must be flushed with ErrOverloaded when drain begins.
	r2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := g.Acquire(context.Background())
		parked <- err
	}()
	for g.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- g.Drain(context.Background()) }()

	if err := <-parked; !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("flushed waiter err = %v, want ErrOverloaded", err)
	}

	// Drain must not complete while queries are in flight.
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v with %d in flight", err, g.InFlight())
	case <-time.After(20 * time.Millisecond):
	}

	r1()
	r2()
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !g.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	// New arrivals are refused after drain.
	if _, err := g.Acquire(context.Background()); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("post-drain Acquire err = %v, want ErrOverloaded", err)
	}
	if n := reg.Counter("admission.t.drains").Value(); n != 1 {
		t.Fatalf("drains = %d, want 1", n)
	}
}

func TestDrainDeadline(t *testing.T) {
	g := NewGate("t", Config{MaxInFlight: 1, MaxWaiting: 0}, obs.NewRegistry())
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck query err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

func TestEWMAUpdatesOnRelease(t *testing.T) {
	g := NewGate("t", Config{MaxInFlight: 1, MaxWaiting: 0}, obs.NewRegistry())
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	release()
	if g.EstimatedService() <= 0 {
		t.Fatalf("EstimatedService = %v after a timed release, want > 0", g.EstimatedService())
	}
}

func TestConcurrentStorm(t *testing.T) {
	g := NewGate("t", Config{MaxInFlight: 4, MaxWaiting: 8}, obs.NewRegistry())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitted, overloaded, other int
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(context.Background())
			mu.Lock()
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, errs.ErrOverloaded):
				overloaded++
			default:
				other++
			}
			mu.Unlock()
			if err == nil {
				time.Sleep(time.Millisecond)
				release()
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("untyped outcomes: %d (admitted=%d overloaded=%d)", other, admitted, overloaded)
	}
	if admitted == 0 || overloaded == 0 {
		t.Fatalf("storm should both admit and shed: admitted=%d overloaded=%d", admitted, overloaded)
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after storm, want 0", g.InFlight())
	}
}
