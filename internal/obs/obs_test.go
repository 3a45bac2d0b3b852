package obs

import (
	"strings"
	"testing"
	"time"

	"rankcube/internal/stats"
)

// fixedClock returns a clock advancing step per call.
func fixedClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

// TestTraceGoldenTree pins the rendered span tree for a hand-built trace.
func TestTraceGoldenTree(t *testing.T) {
	tr := NewTrace()
	tr.Clock = fixedClock(0) // durations set explicitly below

	root := tr.StartSpan("sig.topk")
	tester := tr.StartSpan("tester")
	tr.ObserveRead(stats.StructSignature, 41)
	tr.SpanEnd(400 * time.Microsecond)
	search := tr.StartSpan("search")
	tr.ObserveRead(stats.StructRTree, 80)
	tr.ObserveRetry()
	tr.ObserveHeapHW(32)
	sub := tr.StartSpan("verify")
	tr.ObserveRead(stats.StructTable, 3)
	tr.SpanEnd(100 * time.Microsecond)
	tr.SpanEnd(1200 * time.Microsecond)
	tr.ObserveDowngrade()
	tr.SpanEnd(1800 * time.Microsecond)

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
// Counters built with the trace as its observer and checks the invariant
// the acceptance criteria pin: per-span read totals sum to the counters'
// TotalReads.
func TestTraceAttributionSumsToCounters(t *testing.T) {
	tr := NewTrace()
	c := stats.Governed(nil, stats.Limits{}, tr)

	end := c.StartSpan("query")
	c.Read(stats.StructCube, 5)
	inner := c.StartSpan("search")
	c.Read(stats.StructBlockTab, 7)
	c.Read(stats.StructTable, 2)
	c.ObserveHeap(9)
	inner()
	c.Read(stats.StructCube, 1)
	end()
	tr.Finish()

	if got, want := tr.TotalReads(), c.TotalReads(); got != want {
		t.Errorf("trace reads %d != counters reads %d", got, want)
	}
	root := tr.Root()
	if root.Name != "query" || len(root.Children) != 1 {
		t.Fatalf("unexpected tree: %s", tr.Render())
	}
	if root.Reads[stats.StructCube] != 6 {
		t.Errorf("root cube reads = %d, want 6 (exclusive attribution)", root.Reads[stats.StructCube])
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
	tr.ObserveRead(stats.StructRTree, 4)
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
	tr.ObserveRead(stats.StructBTree, 2)
	if tr.Root() == nil || tr.TotalReads() != 2 {
		t.Fatalf("stray read not attributed: %v", tr.Render())
	}
}

// TestHistogramGoldenBuckets pins the log2 bucket boundaries and the
// rendered form.
func TestHistogramGoldenBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)                     // bucket 0: <1µs
	h.Observe(900 * time.Nanosecond) // bucket 0
	h.Observe(1 * time.Microsecond)  // bucket 1: <2µs
	h.Observe(3 * time.Microsecond)  // bucket 2: <4µs
	h.Observe(1 * time.Millisecond)  // 1000µs → bucket 10: <1.024ms
	h.Observe(100 * time.Hour)       // absorbed by the last bucket
	h.Observe(-5 * time.Microsecond) // clamped to bucket 0

	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	for i, want := range map[int]int64{0: 3, 1: 1, 2: 1, 10: 1, histBuckets - 1: 1} {
		if got := h.Bucket(i); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	want := "<1µs:3 <2µs:1 <4µs:1 <1.024ms:1 <inf:1"
	if got := h.String(); got != want {
		t.Errorf("histogram render = %q, want %q", got, want)
	}
}

// TestRegistryTextEndpoint checks get-or-create semantics and the stable
// plain-text rendering RecordQuery feeds.
func TestRegistryTextEndpoint(t *testing.T) {
	r := NewRegistry()
	r.RecordQuery("sig.topk", OutcomeOK, 3*time.Microsecond,
		map[stats.Structure]int64{stats.StructRTree: 10, stats.StructSignature: 4}, 1, 0)
	r.RecordQuery("sig.topk", OutcomeDegraded, 5*time.Microsecond,
		map[stats.Structure]int64{stats.StructTable: 20}, 0, 1)
	r.RecordQuarantine(stats.StructSignature)
	r.Gauge("inflight").Set(2)

	var b strings.Builder
	r.WriteText(&b)
	got := b.String()
	want := strings.Join([]string{
		"blockreads.rtree 10",
		"blockreads.signature 4",
		"blockreads.table 20",
		"downgrades 1",
		"faults.retries 1",
		"inflight 2",
		"latency.sig.topk count=2 mean=4µs <4µs:1 <8µs:1",
		"quarantines.signature 1",
		"queries.sig.topk.degraded 1",
		"queries.sig.topk.ok 1",
		"",
	}, "\n")
	if got != want {
		t.Errorf("registry text mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if r.Counter("queries.sig.topk.ok") != r.Counter("queries.sig.topk.ok") {
		t.Errorf("Counter not idempotent")
	}
}

// TestSlowLogRing checks threshold arming, ring eviction, and ordering.
func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(2)
	if l.Threshold() != 0 {
		t.Fatalf("new log should be disabled")
	}
	l.SetThreshold(10 * time.Millisecond)
	if l.Threshold() != 10*time.Millisecond {
		t.Fatalf("threshold not set")
	}
	for i, kind := range []string{"a", "b", "c"} {
		l.Record(SlowEntry{Kind: kind, Dur: time.Duration(i+1) * time.Millisecond, Outcome: OutcomeOK, Tree: kind + "-tree\n"})
	}
	if l.Total() != 3 || l.Len() != 2 {
		t.Fatalf("total=%d len=%d, want 3/2", l.Total(), l.Len())
	}
	got := l.Entries()
	if got[0].Kind != "b" || got[1].Kind != "c" || got[0].Seq != 2 {
		t.Errorf("ring order wrong: %+v", got)
	}
	var b strings.Builder
	l.WriteText(&b)
	if !strings.Contains(b.String(), "c-tree") || strings.Contains(b.String(), "a-tree") {
		t.Errorf("dump wrong:\n%s", b.String())
	}
	l.Reset()
	if l.Len() != 0 {
		t.Errorf("reset kept entries")
	}
}
