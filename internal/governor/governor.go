// Package governor enforces per-query execution limits: context
// cancellation, a block-read budget, and a candidate-buffer budget. A
// Governor is fixed into the stats.Counters a query runs against (Counters),
// so every structure that charges block reads through the pager — grid
// cuboids, base block tables, B+-trees, R-trees, signatures — is governed at
// block-access granularity without threading an extra parameter through the
// engines. Cancellation latency is therefore bounded in pages, not tuples.
//
// A tripped limit unwinds the query with a typed abort (internal/errs);
// the public API boundary converts it into ErrCanceled or
// ErrBudgetExceeded. Counters record each read before the governor is
// consulted, so partial statistics survive the abort intact.
package governor

import (
	"context"

	"rankcube/internal/errs"
	"rankcube/internal/stats"
)

// Limits are the per-query resource budgets. Zero values mean unlimited.
type Limits struct {
	// MaxBlockReads caps total simulated block reads across all storage
	// structures touched by the query.
	MaxBlockReads int64
	// MaxCandidates caps the combined candidate-buffer (search heap)
	// occupancy observed at any point of the query.
	MaxCandidates int
}

// Governor watches one query's execution. It is not safe for concurrent
// use; each query owns one governor, matching stats.Counters' contract.
type Governor struct {
	//lint:ctxfield per-query carrier: one governor serves exactly one query, so the stash cannot outlive its caller's ctx
	ctx context.Context
	// done is ctx.Done(), taken once: polling it is a lock-free receive,
	// where ctx.Err() takes the context's mutex, which every query running
	// under that context would contend for at every block read.
	done   <-chan struct{}
	lim    Limits
	blocks int64
}

// New returns a governor enforcing ctx and lim. A nil ctx means
// context.Background() (cancellation never fires).
func New(ctx context.Context, lim Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Governor{ctx: ctx, done: ctx.Done(), lim: lim}
}

// Counters returns the execution context of one governed query: an empty
// collector that ctx and lim govern and obs (nil for none) observes,
// allocated together with its governor.
func Counters(ctx context.Context, lim Limits, obs stats.Observer) *stats.Counters {
	x := &struct {
		ctr stats.Counters
		gov Governor
	}{gov: *New(ctx, lim)}
	x.ctr = stats.Governed(&x.gov, obs)
	return &x.ctr
}

// Blocks reports the block reads charged so far.
func (g *Governor) Blocks() int64 { return g.blocks }

// OnRead implements stats.Governor: it accumulates block reads and aborts
// on cancellation or a tripped read budget.
func (g *Governor) OnRead(_ stats.Structure, n int64) {
	g.blocks += n
	g.checkCtx()
	if g.lim.MaxBlockReads > 0 && g.blocks > g.lim.MaxBlockReads {
		errs.Abortf(errs.ErrBudgetExceeded, "governor: %d block reads over limit %d",
			g.blocks, g.lim.MaxBlockReads)
	}
}

// OnHeap implements stats.Governor: it aborts when the candidate buffer
// outgrows its budget, and piggybacks a cancellation check so engines
// whose loop iterations hit only buffered pages still stop promptly.
func (g *Governor) OnHeap(size int) {
	g.checkCtx()
	if g.lim.MaxCandidates > 0 && size > g.lim.MaxCandidates {
		errs.Abortf(errs.ErrBudgetExceeded, "governor: %d candidate entries over limit %d",
			size, g.lim.MaxCandidates)
	}
}

// OnCheckpoint implements stats.Governor: a pure cancellation check for
// engine loops that neither read blocks nor grow heaps.
func (g *Governor) OnCheckpoint() { g.checkCtx() }

func (g *Governor) checkCtx() {
	select {
	case <-g.done:
		errs.Abort(&canceledError{cause: g.ctx.Err()})
	default: // still running, or a context that cannot be canceled (nil channel)
	}
}

// canceledError wraps the context error so callers can match either
// errs.ErrCanceled or the underlying context.Canceled/DeadlineExceeded.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return errs.ErrCanceled.Error() + ": " + e.cause.Error() }

func (e *canceledError) Unwrap() []error { return []error{errs.ErrCanceled, e.cause} }
