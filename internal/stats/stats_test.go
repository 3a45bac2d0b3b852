package stats

import (
	"slices"
	"sync"
	"testing"
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
