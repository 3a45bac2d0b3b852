package stats

import (
	"strings"
	"testing"
	"time"
)

// scriptedClock returns a clock reading the given instants, in µs, one per
// call.
func scriptedClock(us ...int) func() time.Time {
	return func() time.Time {
		t := time.UnixMicro(int64(us[0]))
		us = us[1:]
		return t
	}
}

// TestTraceGoldenTree pins the rendered span tree for a hand-built trace.
func TestTraceGoldenTree(t *testing.T) {
	tr := NewTrace()
	// Starts and ends in call order: sig.topk, tester, /tester, search,
	// verify, /verify, /search, /sig.topk.
	tr.Clock = scriptedClock(0, 100, 500, 500, 900, 1000, 1700, 1800)

	root := tr.StartSpan("sig.topk")
	tester := tr.StartSpan("tester")
	tr.ObserveRead(StructSignature, 41)
	tr.EndSpan()
	search := tr.StartSpan("search")
	tr.ObserveRead(StructRTree, 80)
	tr.ObserveRetry()
	tr.ObserveHeapHW(32)
	sub := tr.StartSpan("verify")
	tr.ObserveRead(StructTable, 3)
	tr.EndSpan()
	tr.EndSpan()
	tr.ObserveDowngrade()
	tr.EndSpan()

	if tr.Root() != root || len(root.Children) != 2 || len(search.Children) != 1 || search.Children[0] != sub {
		t.Fatalf("unexpected tree shape")
	}
	_ = tester

	want := strings.Join([]string{
		"sig.topk                        1.8ms downgrades=1",
		"├─ tester                       400µs reads=41[signature=41]",
		"└─ search                       1.2ms reads=80[rtree=80] retries=1 heap=32",
		"   └─ verify                    100µs reads=3[table=3]",
		"",
	}, "\n")
	if got := tr.Render(); got != want {
		t.Errorf("rendered tree mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if tr.TotalReads() != 124 {
		t.Errorf("TotalReads = %d, want 124", tr.TotalReads())
	}
}

// TestTraceAttributionSumsToCounters drives events through a real
// Counters governed with the trace and checks the core observability
// invariant: per-span read totals sum to the counters' TotalReads.
func TestTraceAttributionSumsToCounters(t *testing.T) {
	tr := NewTrace()
	c := Governed(nil, Limits{}, tr)

	end := c.StartSpan("query")
	c.Read(StructCube, 5)
	inner := c.StartSpan("search")
	c.Read(StructBlockTab, 7)
	c.Read(StructTable, 2)
	c.ObserveHeap(9)
	inner()
	c.Read(StructCube, 1)
	end()
	tr.Finish()

	if got, want := tr.TotalReads(), c.TotalReads(); got != want {
		t.Errorf("trace reads %d != counters reads %d", got, want)
	}
	root := tr.Root()
	if root.Name != "query" || len(root.Children) != 1 {
		t.Fatalf("unexpected tree: %s", tr.Render())
	}
	if root.Reads[StructCube] != 6 {
		t.Errorf("root cube reads = %d, want 6 (exclusive attribution)", root.Reads[StructCube])
	}
	if root.Children[0].HeapHW != 9 {
		t.Errorf("search heap high-water = %d, want 9", root.Children[0].HeapHW)
	}
	// The span tree is the per-phase clock: the closer credits the span the
	// wall time since StartSpan.
	if root.Children[0].Name != "search" || root.Children[0].Dur <= 0 {
		t.Errorf("search span = %q, %v: no duration credited", root.Children[0].Name, root.Children[0].Dur)
	}
}

// TestTraceFinishClosesAbortedSpans simulates a governed abort unwinding
// past span closers.
func TestTraceFinishClosesAbortedSpans(t *testing.T) {
	tr := NewTrace()
	tr.StartSpan("query")
	tr.StartSpan("search")
	tr.ObserveRead(StructRTree, 4)
	tr.Finish()
	if tr.cur != nil {
		t.Fatalf("Finish left open spans")
	}
	if tr.TotalReads() != 4 {
		t.Errorf("reads lost on abort: %d", tr.TotalReads())
	}
	// Ending again is a safe no-op.
	tr.EndSpan()
}

// TestTraceEventsWithoutSpan attributes stray events to a synthesized
// root.
func TestTraceEventsWithoutSpan(t *testing.T) {
	tr := NewTrace()
	tr.ObserveRead(StructBTree, 2)
	if tr.Root() == nil || tr.TotalReads() != 2 {
		t.Fatalf("stray read not attributed: %v", tr.Render())
	}
}
