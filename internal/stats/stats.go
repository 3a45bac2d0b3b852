// Package stats is a query's execution context: the metrics the thesis
// reports in its evaluation chapters — block reads per storage structure,
// joint states generated and examined, peak heap sizes — and the span tree
// that attributes them to phases (Trace). Process-wide aggregates, the
// metrics registry and the slow-query log, are internal/obs's.
//
// A Counters value is threaded through query execution; all structures that
// simulate disk access report into it. It is also the operation's execution
// context: Governed fixes a context, resource Limits and a trace into it, and
// the collector itself enforces them. Every recorded event reaches the trace
// first; then a canceled context, then a tripped budget, unwinds the
// operation with a typed abort (internal/errs), which the public API boundary
// converts into ErrCanceled or ErrBudgetExceeded. Events are recorded before
// the checks run, so partial statistics survive the abort intact, and since
// the pager charges every block access here, cancellation latency and budget
// overshoot are bounded in pages. The public boundary builds one collector
// per operation, and one more for a fallback, and merges them into the
// caller's collector when the operation ends. Counters are not safe for
// concurrent use — each query runs on one goroutine, and benchmarks aggregate
// across runs themselves.
package stats

import (
	"context"
	"fmt"
	"strings"

	"rankcube/internal/errs"
)

// Structure identifies which storage structure a block read touched.
// The thesis distinguishes these when reporting I/O (e.g. fig. 5.10 plots
// index-node reads and signature reads separately).
type Structure uint8

// Storage structures instrumented by the engines in this repository, declared
// in the order of their names, so anything indexed by Structure lists them as
// a sort by name would.
const (
	StructBlockTab  Structure = iota // grid-cube base block table
	StructBTree                      // B+-tree nodes
	StructCube                       // ranking-cube cuboid cells
	StructJoinSig                    // join-signature state signatures
	StructRTree                      // R-tree nodes
	StructSignature                  // partial signatures
	StructTable                      // base relation blocks
	numStructures
)

var structureNames = [numStructures]string{"blocktab", "btree", "cube", "joinsig", "rtree", "signature", "table"}

// String returns the structure's name, the one the registry and every
// rendering print.
func (s Structure) String() string {
	if s < numStructures {
		return structureNames[s]
	}
	return fmt.Sprintf("Structure(%d)", uint8(s))
}

// ReadCounts holds block reads per storage structure, indexed by Structure.
type ReadCounts [numStructures]int64

// Total sums the reads over all structures.
func (r ReadCounts) Total() int64 {
	var t int64
	for _, n := range r {
		t += n
	}
	return t
}

// String renders the structures read, in name order: "rtree=80 signature=41".
func (r ReadCounts) String() string {
	var b strings.Builder
	for s, n := range r {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Structure(s), n)
	}
	return b.String()
}

// Limits are the per-operation resource budgets. Zero values mean unlimited.
type Limits struct {
	// MaxBlockReads caps total simulated block reads across all storage
	// structures touched by the operation.
	MaxBlockReads int64
	// MaxCandidates caps the combined candidate-buffer (search heap)
	// occupancy observed at any point of the operation.
	MaxCandidates int
}

// Counters accumulates metrics during one query or one build. Its recording
// helpers are nil-safe, but the governed accessors that charge page reads
// (pager.Store and Buffer, hindex.Accessor.Reset) refuse a nil Counters with an
// errs.ErrInternal abort: a read charged to nobody escapes the budget and
// every reported count.
type Counters struct {
	reads ReadCounts
	tr    *Trace
	lim   Limits
	//lint:ctxfield per-operation carrier: a governed collector serves exactly one operation, so the stash cannot outlive its caller's ctx
	ctx context.Context
	// done is ctx.Done(), taken once: polling it is a lock-free receive,
	// where ctx.Err() takes the context's mutex, which every query running
	// under that context would contend for at every block read. Nil when
	// nothing can cancel the operation.
	done <-chan struct{}

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

// New returns an empty metrics collector with no limits and no trace.
func New() *Counters { return &Counters{} }

// Governed returns the execution context of one operation: an empty collector
// that ctx and lim govern and tr (nil for none) traces. A nil ctx never
// cancels.
func Governed(ctx context.Context, lim Limits, tr *Trace) *Counters {
	c := &Counters{tr: tr, lim: lim}
	if ctx != nil {
		c.ctx, c.done = ctx, ctx.Done()
	}
	return c
}

// Read records n block reads against the given structure, then aborts on a
// canceled context or a tripped read budget. A nil receiver records nothing.
func (c *Counters) Read(s Structure, n int64) {
	if c == nil {
		return
	}
	c.reads[s] += n
	if c.tr != nil {
		c.tr.ObserveRead(s, n)
	}
	c.checkCtx()
	if c.lim.MaxBlockReads > 0 {
		if t := c.reads.Total(); t > c.lim.MaxBlockReads {
			errs.Abortf(errs.ErrBudgetExceeded, "budget: %d block reads over limit %d", t, c.lim.MaxBlockReads)
		}
	}
}

// AddRetry records one transient read retry.
func (c *Counters) AddRetry() {
	if c == nil {
		return
	}
	c.Retries++
	if c.tr != nil {
		c.tr.ObserveRetry()
	}
}

// AddDowngrade records one baseline-fallback downgrade.
func (c *Counters) AddDowngrade() {
	if c == nil {
		return
	}
	c.Downgrades++
	if c.tr != nil {
		c.tr.ObserveDowngrade()
	}
}

// Checkpoint is a pure cancellation check between block reads; engines call
// it once per search-loop iteration so cancellation latency stays bounded
// even when every page hit is buffered.
func (c *Counters) Checkpoint() {
	if c != nil {
		c.checkCtx()
	}
}

// checkCtx aborts with errs.Canceled once the operation's context is done.
func (c *Counters) checkCtx() {
	select {
	case <-c.done:
		errs.Abort(errs.Canceled(c.ctx.Err()))
	default: // still running, or nothing can cancel (nil channel)
	}
}

// Reads reports the number of block reads recorded for s.
func (c *Counters) Reads(s Structure) int64 {
	if c == nil {
		return 0
	}
	return c.reads[s]
}

// ReadCounts reports the block reads recorded per structure.
func (c *Counters) ReadCounts() ReadCounts {
	if c == nil {
		return ReadCounts{}
	}
	return c.reads
}

// TotalReads reports block reads across all structures.
func (c *Counters) TotalReads() int64 {
	if c == nil {
		return 0
	}
	return c.reads.Total()
}

// ObserveHeap folds a current combined heap size into the peak tracker, then
// aborts on a canceled context — so engines whose loop iterations hit only
// buffered pages still stop promptly — or a candidate buffer over its budget.
func (c *Counters) ObserveHeap(size int) {
	if c == nil {
		return
	}
	if size > c.PeakHeap {
		c.PeakHeap = size
	}
	if c.tr != nil {
		c.tr.ObserveHeapHW(size)
	}
	c.checkCtx()
	if c.lim.MaxCandidates > 0 && size > c.lim.MaxCandidates {
		errs.Abortf(errs.ErrBudgetExceeded, "budget: %d candidate entries over limit %d", size, c.lim.MaxCandidates)
	}
}

// StartSpan opens a named execution span in the trace's span tree, timed by
// the trace's clock, and returns its closer; without a trace it does nothing.
// Use with defer:
//
//	defer ctr.StartSpan("search")()
//
// Spans nest by call order; the closer must run in LIFO order (defer
// guarantees this even when a governed abort unwinds the stack).
func (c *Counters) StartSpan(name string) func() {
	if c == nil || c.tr == nil {
		return func() {}
	}
	c.tr.StartSpan(name)
	return c.tr.EndSpan
}

// Merge adds other's metrics into c.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	for s, n := range other.reads {
		c.reads[s] += n
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
	if reads := c.reads.String(); reads != "" {
		b.WriteString(reads)
		b.WriteByte(' ')
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
