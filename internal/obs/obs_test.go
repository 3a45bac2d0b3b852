package obs

import (
	"strings"
	"testing"
	"time"

	"rankcube/internal/stats"
)

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
	// The ring keeps the last two; the last entry's Seq counts admissions.
	got := l.Entries()
	if len(got) != 2 {
		t.Fatalf("kept %d entries, want 2", len(got))
	}
	if got[0].Kind != "b" || got[1].Kind != "c" || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Errorf("ring order or admission count wrong: %+v", got)
	}
	var b strings.Builder
	l.WriteText(&b)
	if !strings.Contains(b.String(), "c-tree") || strings.Contains(b.String(), "a-tree") {
		t.Errorf("dump wrong:\n%s", b.String())
	}
}
