package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one offending query kept by the slow-query log.
type SlowEntry struct {
	// Seq is the admission sequence number (process-wide, 1-based).
	Seq int64
	// At is the wall-clock time the query finished.
	At time.Time
	// Kind is the query kind ("sig.topk", "join.topk", …).
	Kind string
	// Dur is the query's total wall time.
	Dur time.Duration
	// Outcome classifies how the query ended.
	Outcome Outcome
	// Err is the error text for non-ok outcomes ("" otherwise).
	Err string
	// Tree is the rendered span tree of the query's execution trace.
	Tree string
}

// SlowLog is a threshold-gated ring buffer of slow-query records. The
// zero threshold disables logging. All methods are safe for concurrent
// use.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 = disabled
	seq       atomic.Int64

	mu   sync.Mutex
	ring []SlowEntry
	next int
	n    int
}

// NewSlowLog returns a disabled slow-query log keeping the most recent
// capacity entries (minimum 1).
func NewSlowLog(capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{ring: make([]SlowEntry, capacity)}
}

// defaultSlowLog is the process-wide instance the API boundary feeds.
var defaultSlowLog = NewSlowLog(64)

// DefaultSlowLog returns the process-wide slow-query log.
func DefaultSlowLog() *SlowLog { return defaultSlowLog }

// SetThreshold arms the log: queries at or above d are recorded. Zero
// (or negative) disarms it.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.threshold.Store(int64(d))
}

// Threshold reports the current threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// Record unconditionally admits e (the caller applies the threshold —
// per-query overrides may differ from the log's own). The entry's Seq is
// assigned here.
func (l *SlowLog) Record(e SlowEntry) {
	e.Seq = l.seq.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
}

// Entries returns the retained entries, oldest first.
func (l *SlowLog) Entries() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// WriteText dumps the retained entries, oldest first, each with its span
// tree.
func (l *SlowLog) WriteText(w io.Writer) {
	entries := l.Entries()
	if len(entries) == 0 {
		fmt.Fprintln(w, "slow-query log: empty")
		return
	}
	for _, e := range entries {
		fmt.Fprintf(w, "#%d %s %s %s outcome=%s", e.Seq, e.At.Format(time.RFC3339), e.Kind, e.Dur.Round(time.Microsecond), e.Outcome)
		if e.Err != "" {
			fmt.Fprintf(w, " err=%q", e.Err)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, e.Tree)
	}
}
