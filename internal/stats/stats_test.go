package stats

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"rankcube/internal/errs"
)

func TestReadsAccumulate(t *testing.T) {
	c := New()
	c.Read(StructRTree, 3)
	c.Read(StructRTree, 2)
	c.Read(StructCube, 1)
	if c.Reads(StructRTree) != 5 || c.Reads(StructCube) != 1 {
		t.Fatalf("reads: rtree=%d cube=%d", c.Reads(StructRTree), c.Reads(StructCube))
	}
	if c.TotalReads() != 6 {
		t.Fatalf("TotalReads = %d", c.TotalReads())
	}
}

func TestNilReceiverSafe(t *testing.T) {
	var c *Counters
	c.Read(StructRTree, 1)
	c.ObserveHeap(10)
	c.StartSpan("x")()
	if c.Reads(StructRTree) != 0 || c.TotalReads() != 0 {
		t.Fatal("nil counters returned non-zero")
	}
	if c.String() == "" {
		t.Fatal("nil String empty")
	}
}

func TestObserveHeapKeepsMax(t *testing.T) {
	c := New()
	c.ObserveHeap(5)
	c.ObserveHeap(3)
	c.ObserveHeap(9)
	c.ObserveHeap(2)
	if c.PeakHeap != 9 {
		t.Fatalf("PeakHeap = %d", c.PeakHeap)
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.Read(StructBTree, 2)
	a.StatesGenerated = 5
	a.PeakHeap = 3
	b := New()
	b.Read(StructBTree, 3)
	b.StatesGenerated = 7
	b.PeakHeap = 10
	a.Merge(b)
	if a.Reads(StructBTree) != 5 || a.StatesGenerated != 12 || a.PeakHeap != 10 {
		t.Fatalf("merge: %s", a)
	}
	a.Merge(nil) // no-op
}

// TestMergeConcurrentWriters exercises the documented concurrency contract
// under the race detector: one Counters per goroutine (writes need no
// locking), aggregated afterwards with Merge on a single goroutine.
func TestMergeConcurrentWriters(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	results := make(chan *Counters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := New()
			for i := 0; i < perWorker; i++ {
				c.Read(StructRTree, 1)
				c.Read(StructSignature, 2)
				c.ObserveHeap(w*perWorker + i)
				c.StatesExamined++
			}
			end := c.StartSpan("tail")
			end()
			results <- c
		}(w)
	}
	wg.Wait()
	close(results)
	agg := New()
	for c := range results {
		agg.Merge(c)
	}
	if got := agg.Reads(StructRTree); got != workers*perWorker {
		t.Fatalf("rtree reads = %d, want %d", got, workers*perWorker)
	}
	if got := agg.Reads(StructSignature); got != 2*workers*perWorker {
		t.Fatalf("signature reads = %d, want %d", got, 2*workers*perWorker)
	}
	if agg.StatesExamined != workers*perWorker {
		t.Fatalf("StatesExamined = %d", agg.StatesExamined)
	}
	if agg.PeakHeap != workers*perWorker-1 {
		t.Fatalf("PeakHeap = %d, want %d", agg.PeakHeap, workers*perWorker-1)
	}
}

// TestMergeUnderLockConcurrently covers the other legal aggregation shape:
// goroutines merging their private Counters into one shared aggregate, with
// the callers providing the mutual exclusion.
func TestMergeUnderLockConcurrently(t *testing.T) {
	const workers = 8
	agg := New()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New()
			c.Read(StructCube, 10)
			c.Retries++
			mu.Lock()
			agg.Merge(c)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := agg.Reads(StructCube); got != 10*workers {
		t.Fatalf("cube reads = %d, want %d", got, 10*workers)
	}
	if agg.Retries != workers {
		t.Fatalf("retries = %d", agg.Retries)
	}
}

func TestStringStable(t *testing.T) {
	c := New()
	c.Read(StructRTree, 1)
	c.Read(StructCube, 2)
	c.Retries = 3
	if got, want := c.String(), "cube=2 rtree=1 states=0/0 peakHeap=0 pruned=0 retries=3"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestStructureNames pins the names every rendering and registry counter
// prints, and that the enum's order is their sorted order.
func TestStructureNames(t *testing.T) {
	var names []string
	for s := range numStructures {
		names = append(names, s.String())
	}
	want := []string{"blocktab", "btree", "cube", "joinsig", "rtree", "signature", "table"}
	if !slices.Equal(names, want) {
		t.Fatalf("names %v, want %v", names, want)
	}
	if got := numStructures.String(); got != "Structure(7)" {
		t.Fatalf("out-of-range name %q", got)
	}
}

// abortOf runs fn and returns the error of the typed abort it raised, nil when
// it returned normally. Any other panic propagates.
func abortOf(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = errs.IsAbort(r); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func TestUnlimitedCollectorNeverAborts(t *testing.T) {
	c := Governed(nil, Limits{}, nil)
	if err := abortOf(func() {
		for range 1000 {
			c.Read(StructTable, 10)
			c.ObserveHeap(1 << 20)
			c.Checkpoint()
		}
	}); err != nil {
		t.Fatalf("unexpected abort: %v", err)
	}
	if c.TotalReads() != 10000 {
		t.Fatalf("reads = %d, want 10000", c.TotalReads())
	}
}

func TestBlockBudgetTrips(t *testing.T) {
	c := Governed(context.Background(), Limits{MaxBlockReads: 5}, nil)
	err := abortOf(func() {
		c.Read(StructCube, 3)
		c.Read(StructRTree, 3) // 6 > 5, across structures
	})
	if !errors.Is(err, errs.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// The read that tripped the budget is recorded before the abort.
	if c.TotalReads() != 6 {
		t.Fatalf("reads = %d, want 6", c.TotalReads())
	}
}

func TestHeapBudgetTrips(t *testing.T) {
	c := Governed(context.Background(), Limits{MaxCandidates: 100}, nil)
	if err := abortOf(func() { c.ObserveHeap(100) }); err != nil {
		t.Fatalf("at the limit should pass, got %v", err)
	}
	err := abortOf(func() { c.ObserveHeap(101) })
	if !errors.Is(err, errs.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if c.PeakHeap != 101 {
		t.Fatalf("PeakHeap = %d, want 101", c.PeakHeap)
	}
}

func TestCancellationAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := Governed(ctx, Limits{}, nil)
	if err := abortOf(func() { c.Read(StructTable, 1) }); err != nil {
		t.Fatalf("live context aborted: %v", err)
	}
	cancel()
	for name, fn := range map[string]func(){
		"Read":        func() { c.Read(StructTable, 1) },
		"ObserveHeap": func() { c.ObserveHeap(1) },
		"Checkpoint":  c.Checkpoint,
	} {
		err := abortOf(fn)
		if !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		// The concrete context cause stays reachable for callers that
		// distinguish cancellation from deadline expiry.
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v does not unwrap to context.Canceled", name, err)
		}
	}
}

func TestCancellationBeatsBudget(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Governed(ctx, Limits{MaxBlockReads: 1, MaxCandidates: 1}, nil)
	for name, fn := range map[string]func(){
		"Read":        func() { c.Read(StructTable, 100) },
		"ObserveHeap": func() { c.ObserveHeap(100) },
	} {
		if err := abortOf(fn); !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled to win over the budget", name, err)
		}
	}
}
