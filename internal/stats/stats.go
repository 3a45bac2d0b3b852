// Package stats collects the execution metrics the thesis reports in its
// evaluation chapters: block reads per storage structure, joint states
// generated and examined, and peak heap sizes. Wall-clock time per phase is
// the attached Observer's business (StartSpan).
//
// A Counters value is threaded through query execution; all structures that
// simulate disk access report into it. Counters are not safe for concurrent
// use — each query runs on one goroutine, and benchmarks aggregate across
// runs themselves.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Structure identifies which storage structure a block read touched.
// The thesis distinguishes these when reporting I/O (e.g. fig. 5.10 plots
// index-node reads and signature reads separately).
type Structure string

// Storage structures instrumented by the engines in this repository.
const (
	StructTable     Structure = "table"     // base relation blocks
	StructCube      Structure = "cube"      // ranking-cube cuboid cells
	StructBlockTab  Structure = "blocktab"  // grid-cube base block table
	StructBTree     Structure = "btree"     // B+-tree nodes
	StructRTree     Structure = "rtree"     // R-tree nodes
	StructSignature Structure = "signature" // partial signatures
	StructJoinSig   Structure = "joinsig"   // join-signature state signatures
)

// Governor is an optional per-query execution governor consulted as
// metrics are recorded. The concrete implementation (internal/governor)
// enforces context cancellation and block-read/candidate budgets by
// panicking with a typed abort (internal/errs) that the public API
// boundary recovers into an error. Counters record each event before the
// governor runs, so partial statistics survive an abort intact.
type Governor interface {
	// OnRead observes n block reads against structure s.
	OnRead(s Structure, n int64)
	// OnHeap observes the current combined candidate-heap occupancy.
	OnHeap(size int)
	// OnCheckpoint marks a loop iteration that neither read blocks nor
	// grew a heap — a pure cancellation poll point.
	OnCheckpoint()
}

// Observer receives the fine-grained execution events the governor's
// enforcement view does not need: span boundaries and per-event
// attribution of reads, retries, heap growth, and downgrades. The
// concrete implementation (internal/obs.Trace) builds a per-query span
// tree from them. Observers see each event after the counters record it
// and before the governor runs, so an abort mid-span still leaves the
// event attributed. Span events follow strict stack discipline: SpanEnd
// closes the most recently started open span.
type Observer interface {
	// SpanStart opens a child span of the current span.
	SpanStart(name string)
	// SpanEnd closes the current span, crediting it d of wall time.
	SpanEnd(d time.Duration)
	// ObserveRead attributes n block reads against s to the current span.
	ObserveRead(s Structure, n int64)
	// ObserveRetry attributes one transient-fault retry.
	ObserveRetry()
	// ObserveHeapHW folds a heap occupancy into the span's high-water mark.
	ObserveHeapHW(size int)
	// ObserveDowngrade attributes one baseline-fallback downgrade.
	ObserveDowngrade()
}

// Counters accumulates metrics during one query or one build.
type Counters struct {
	reads map[Structure]int64
	gov   Governor
	obs   Observer

	// StatesGenerated counts entries pushed onto a search heap (thesis
	// fig. 5.11). In the signature cube's search that is every tuple and
	// node that passed the boolean test plus one deferred entry per node
	// read — the entry that stands for the node's qualifying children until
	// the search reaches the best of them — and never a child that fails the
	// test.
	StatesGenerated int64
	// StatesExamined counts entries popped from a search heap: tuples
	// emitted or verified, nodes qualified (and read, or skipped unread),
	// deferred entries unfolded.
	StatesExamined int64
	// PeakHeap records the maximum combined heap occupancy observed, taken
	// at each pop (thesis figs. 5.12, 7.5). It is what Budget.MaxCandidates
	// bounds.
	PeakHeap int
	// Pruned counts candidates discarded by boolean pruning. The signature
	// cube's search counts child slots — each slot of a popped node that a
	// signature stage cleared or a Test-only tester refused before the node
	// was read, all of them when the node is skipped unread; the child never
	// becomes a heap entry — plus popped tuples that failed a lossy measure's
	// re-verification; the skyline and index-merge loops count popped
	// entries whose test failed.
	Pruned int64
	// DominationPruned counts candidates discarded by domination checks
	// in skyline processing.
	DominationPruned int64
	// Retries counts transient page-read failures the pager retried.
	Retries int64
	// Downgrades counts queries the degradation policy transparently
	// re-answered from a baseline scan after a cube-side fault.
	Downgrades int64
}

// New returns an empty metrics collector.
func New() *Counters {
	return &Counters{reads: make(map[Structure]int64)}
}

// SetGovernor attaches (or, with nil, detaches) a query governor. The
// governor sees every read and heap observation recorded afterwards.
func (c *Counters) SetGovernor(g Governor) {
	if c == nil {
		return
	}
	c.gov = g
}

// DetachGovernor detaches g, but only if g is the governor currently
// attached — so the owner of a stale attachment (a closed scanner whose
// Metrics was since reattached elsewhere) cannot strip a successor's
// governor. It reports whether a detach happened.
func (c *Counters) DetachGovernor(g Governor) bool {
	if c == nil || c.gov == nil || c.gov != g {
		return false
	}
	c.gov = nil
	return true
}

// SetObserver attaches (or, with nil, detaches) an execution observer.
func (c *Counters) SetObserver(o Observer) {
	if c == nil {
		return
	}
	c.obs = o
}

// DetachObserver detaches o under the same ownership guard as
// DetachGovernor.
func (c *Counters) DetachObserver(o Observer) bool {
	if c == nil || c.obs == nil || c.obs != o {
		return false
	}
	c.obs = nil
	return true
}

// Read records n block reads against the given structure. A nil receiver is
// permitted so that callers can run without instrumentation.
func (c *Counters) Read(s Structure, n int64) {
	if c == nil {
		return
	}
	c.reads[s] += n
	if c.obs != nil {
		c.obs.ObserveRead(s, n)
	}
	if c.gov != nil {
		c.gov.OnRead(s, n)
	}
}

// AddRetry records one transient read retry (nil-safe for the pager's
// uninstrumented callers).
func (c *Counters) AddRetry() {
	if c == nil {
		return
	}
	c.Retries++
	if c.obs != nil {
		c.obs.ObserveRetry()
	}
}

// AddDowngrade records one baseline-fallback downgrade.
func (c *Counters) AddDowngrade() {
	if c == nil {
		return
	}
	c.Downgrades++
	if c.obs != nil {
		c.obs.ObserveDowngrade()
	}
}

// Checkpoint gives the attached governor an abort opportunity between
// block reads; engines call it once per search-loop iteration so
// cancellation latency stays bounded even when every page hit is buffered.
func (c *Counters) Checkpoint() {
	if c == nil || c.gov == nil {
		return
	}
	c.gov.OnCheckpoint()
}

// Reads reports the number of block reads recorded for s.
func (c *Counters) Reads(s Structure) int64 {
	if c == nil {
		return 0
	}
	return c.reads[s]
}

// TotalReads reports block reads across all structures.
func (c *Counters) TotalReads() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for _, v := range c.reads {
		t += v
	}
	return t
}

// ReadsSnapshot copies the per-structure read counts, so a boundary can
// diff the state before and after a query that reuses a shared collector.
func (c *Counters) ReadsSnapshot() map[Structure]int64 {
	if c == nil || len(c.reads) == 0 {
		return nil
	}
	out := make(map[Structure]int64, len(c.reads))
	for s, v := range c.reads {
		out[s] = v
	}
	return out
}

// ObserveHeap folds a current combined heap size into the peak tracker.
func (c *Counters) ObserveHeap(size int) {
	if c == nil {
		return
	}
	if size > c.PeakHeap {
		c.PeakHeap = size
	}
	if c.obs != nil {
		c.obs.ObserveHeapHW(size)
	}
	if c.gov != nil {
		c.gov.OnHeap(size)
	}
}

// StartSpan opens a named execution span in the attached observer's span
// tree — the one per-phase clock — and returns its closer; without an
// observer it does nothing. Use with defer:
//
//	defer ctr.StartSpan("search")()
//
// Spans nest by call order; the closer must run in LIFO order (defer
// guarantees this even when a governed abort unwinds the stack).
func (c *Counters) StartSpan(name string) func() {
	if c == nil || c.obs == nil {
		return func() {}
	}
	// End against the observer that opened the span: a boundary may detach
	// the trace before a deferred closer runs.
	obs := c.obs
	obs.SpanStart(name)
	start := time.Now()
	return func() { obs.SpanEnd(time.Since(start)) }
}

// Merge adds other's metrics into c.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	for s, v := range other.reads {
		c.reads[s] += v
	}
	c.StatesGenerated += other.StatesGenerated
	c.StatesExamined += other.StatesExamined
	c.Pruned += other.Pruned
	c.DominationPruned += other.DominationPruned
	c.Retries += other.Retries
	c.Downgrades += other.Downgrades
	if other.PeakHeap > c.PeakHeap {
		c.PeakHeap = other.PeakHeap
	}
}

// String renders a stable, human-readable summary.
func (c *Counters) String() string {
	if c == nil {
		return "<nil counters>"
	}
	var b strings.Builder
	keys := make([]string, 0, len(c.reads))
	for s := range c.reads {
		keys = append(keys, string(s))
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, c.reads[Structure(k)])
	}
	fmt.Fprintf(&b, "states=%d/%d peakHeap=%d pruned=%d",
		c.StatesExamined, c.StatesGenerated, c.PeakHeap, c.Pruned)
	if c.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", c.Retries)
	}
	if c.Downgrades > 0 {
		fmt.Fprintf(&b, " downgrades=%d", c.Downgrades)
	}
	return b.String()
}
