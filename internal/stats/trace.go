package stats

import (
	"fmt"
	"strings"
	"time"
)

// Span is one node of a query's execution trace: a named phase with wall
// time and the execution events attributed while it was the innermost
// open span. Reads are attributed exclusively (a parent does not repeat
// its children's reads), so summing Reads over the whole tree yields the
// query's total block reads.
type Span struct {
	// Name labels the phase ("search", "tester", "fallback", …).
	Name string
	// Dur is the span's wall-clock time, including children, measured by
	// the trace's clock.
	Dur time.Duration
	// Reads counts governed block reads per storage structure attributed
	// to this span (exclusive of children).
	Reads ReadCounts
	// Retries counts transient-fault retries ridden out in this span.
	Retries int64
	// Downgrades counts baseline-fallback downgrades recorded here.
	Downgrades int64
	// HeapHW is the span's candidate-heap high-water mark.
	HeapHW int
	// Children are sub-spans in start order.
	Children []*Span

	parent *Span
	start  time.Time
}

// TotalReads sums block reads over the span and all descendants.
func (s *Span) TotalReads() int64 {
	t := s.Reads.Total()
	for _, c := range s.Children {
		t += c.TotalReads()
	}
	return t
}

// Trace is a per-query execution trace. Counters built with one (Governed)
// route every governed event into its span tree, and their spans open and
// close on it. A Trace is single-goroutine, matching the Counters contract:
// one query, one goroutine, one trace.
type Trace struct {
	// Clock supplies span timestamps, the one clock every span is timed
	// by; tests may pin it. Nil means time.Now.
	Clock func() time.Time

	root *Span
	cur  *Span
}

// NewTrace returns an empty trace. The first span started becomes the
// root.
func NewTrace() *Trace { return &Trace{} }

// Root returns the root span, or nil when nothing was recorded.
func (t *Trace) Root() *Span { return t.root }

func (t *Trace) now() time.Time {
	if t.Clock != nil {
		return t.Clock()
	}
	return time.Now()
}

// StartSpan opens a child of the current span (or the root when none is
// open yet) and makes it current.
func (t *Trace) StartSpan(name string) *Span {
	sp := &Span{Name: name, parent: t.cur, start: t.now()}
	switch {
	case t.root == nil:
		t.root = sp
	case t.cur == nil:
		// A finished trace reused for another top-level phase: treat the
		// existing root as the parent so the tree stays connected.
		sp.parent = t.root
		t.root.Children = append(t.root.Children, sp)
	default:
		t.cur.Children = append(t.cur.Children, sp)
	}
	t.cur = sp
	return sp
}

// EndSpan closes the current span, measuring its duration with the
// trace's clock. A call with no open span is a no-op (the boundary may
// already have finished the trace when a deferred closer runs).
func (t *Trace) EndSpan() {
	if sp := t.cur; sp != nil {
		sp.Dur = t.now().Sub(sp.start)
		t.cur = sp.parent
	}
}

// Finish closes any spans left open — an abort unwound past their
// closers, or the boundary is sealing the trace for rendering.
func (t *Trace) Finish() {
	for t.cur != nil {
		t.EndSpan()
	}
}

// TotalReads sums attributed block reads over the whole tree.
func (t *Trace) TotalReads() int64 {
	if t.root == nil {
		return 0
	}
	return t.root.TotalReads()
}

// target returns the span execution events attribute to: the innermost
// open span, or the root when events arrive outside any span.
func (t *Trace) target() *Span {
	if t.cur != nil {
		return t.cur
	}
	if t.root == nil {
		t.root = &Span{Name: "query", start: t.now()}
		t.cur = t.root
	}
	return t.root
}

// ObserveRead attributes n block reads against s to the current span.
func (t *Trace) ObserveRead(s Structure, n int64) { t.target().Reads[s] += n }

// ObserveRetry attributes one transient-fault retry to the current span.
func (t *Trace) ObserveRetry() { t.target().Retries++ }

// ObserveHeapHW folds a heap occupancy into the current span's high-water
// mark.
func (t *Trace) ObserveHeapHW(size int) {
	if sp := t.target(); size > sp.HeapHW {
		sp.HeapHW = size
	}
}

// ObserveDowngrade attributes one baseline-fallback downgrade to the current
// span.
func (t *Trace) ObserveDowngrade() { t.target().Downgrades++ }

// Render draws the span tree as indented text, one span per line:
//
//	sig.topk                 1.8ms reads=121[rtree=80 signature=41] heap=32
//	├─ tester                400µs reads=41[signature=41]
//	└─ search                1.2ms reads=80[rtree=80] retries=1
func (t *Trace) Render() string {
	if t.root == nil {
		return "<empty trace>\n"
	}
	var b strings.Builder
	renderSpan(&b, t.root, "", "", "")
	return b.String()
}

func renderSpan(b *strings.Builder, sp *Span, lead, branch, childLead string) {
	label := lead + branch + sp.Name
	fmt.Fprintf(b, "%-28s %8s", label, sp.Dur.Round(time.Microsecond))
	if total := sp.Reads.Total(); total > 0 {
		fmt.Fprintf(b, " reads=%d[%s]", total, sp.Reads)
	}
	if sp.Retries > 0 {
		fmt.Fprintf(b, " retries=%d", sp.Retries)
	}
	if sp.Downgrades > 0 {
		fmt.Fprintf(b, " downgrades=%d", sp.Downgrades)
	}
	if sp.HeapHW > 0 {
		fmt.Fprintf(b, " heap=%d", sp.HeapHW)
	}
	b.WriteByte('\n')
	for i, c := range sp.Children {
		if i == len(sp.Children)-1 {
			renderSpan(b, c, lead+childLead, "└─ ", "   ")
		} else {
			renderSpan(b, c, lead+childLead, "├─ ", "│  ")
		}
	}
}
