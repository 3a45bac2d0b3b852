package rankcube

// Robustness & degradation layer: typed query errors, per-query budgets,
// panic containment at the API boundary, and transparent fallback to exact
// baseline scans when cube structures fault. See the package documentation
// ("Robustness & degradation policy") for the rules; the boundary every
// entry point passes through is in query.go.

import (
	"errors"

	"rankcube/internal/errs"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
)

// Typed errors. Every error the package returns matches exactly one of
// these under errors.Is.
var (
	// ErrCanceled: the query's context was canceled or timed out.
	ErrCanceled = errs.ErrCanceled
	// ErrBudgetExceeded: a Budget limit tripped mid-search.
	ErrBudgetExceeded = errs.ErrBudgetExceeded
	// ErrPageCorrupt: a storage page failed checksum verification.
	ErrPageCorrupt = errs.ErrPageCorrupt
	// ErrReadFailed: a page read kept failing after retries.
	ErrReadFailed = errs.ErrReadFailed
	// ErrStructureUnavailable: a structure is quarantined after corruption.
	ErrStructureUnavailable = errs.ErrStructureUnavailable
	// ErrInternal: an engine panic was contained at the API boundary.
	ErrInternal = errs.ErrInternal
	// ErrInvalidArgument: the request itself was malformed (bad schema,
	// missing snapshot, unsupported operation). Never degrades.
	ErrInvalidArgument = errs.ErrInvalidArgument
	// ErrOverloaded: the cube's admission gate refused the query — serving
	// capacity saturated, wait queue full, the query's deadline would have
	// expired before a slot freed, or the cube is draining. Never degrades:
	// shedding load by running a full baseline scan would make the overload
	// worse. Retry later.
	ErrOverloaded = errs.ErrOverloaded
)

// Budget bounds one query's resource consumption and configures its
// degradation policy. The zero value is unlimited with fallback enabled.
type Budget struct {
	// MaxBlockReads caps simulated block reads across every storage
	// structure the query touches (0 = unlimited). Enforcement happens in
	// the pager at block-access granularity, so cancellation latency and
	// budget overshoot are bounded in pages, not tuples.
	MaxBlockReads int64
	// MaxCandidates caps the combined candidate-buffer (search heap)
	// occupancy (0 = unlimited).
	MaxCandidates int
	// DisableFallback turns off degradation: faults surface as typed
	// errors instead of baseline-scan answers.
	DisableFallback bool
	// FallbackOnBudget extends degradation to ErrBudgetExceeded: when the
	// budget trips, answer with a baseline scan (which ignores MaxBlockReads
	// — a full scan is the floor cost of an exact answer) rather than fail.
	FallbackOnBudget bool
}

func (b Budget) limits() stats.Limits {
	return stats.Limits{MaxBlockReads: b.MaxBlockReads, MaxCandidates: b.MaxCandidates}
}

// shouldDegrade decides whether a failed cube-side attempt is re-answered
// by the matching baseline scan.
func (b Budget) shouldDegrade(err error) bool {
	if err == nil || b.DisableFallback {
		return false
	}
	if errors.Is(err, errs.ErrBudgetExceeded) {
		return b.FallbackOnBudget
	}
	return errs.Degradable(err)
}

// contained runs fn, converting typed aborts (cancellation, budget trips,
// storage faults, malformed rows) and any other panic into errors. No panic
// escapes it.
func contained[T any](fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = *new(T), errs.FromPanic(r)
		}
	}()
	return fn()
}

// runGoverned executes fn contained against the governed collector m.
func runGoverned[T any](m *Metrics, fn func(m *Metrics) (T, error)) (T, error) {
	return contained(func() (T, error) {
		m.Checkpoint() // fail fast on an already-canceled context
		return fn(m)
	})
}

// GovernedScanner is a panic-contained, budget-governed score-ascending
// iterator (SignatureCube.OpenScan). Unlike the batch entry points it
// cannot transparently degrade — a stream cannot restart without
// re-emitting — so faults surface as typed errors from Next.
type GovernedScanner struct {
	s *sigcube.Scanner
	// op is the open half of the boundary the scan has held since OpenScan:
	// the cube's shared serving lock and admission slot, the execution
	// context the scanner charges, the root span. Close runs the other half.
	op     operation
	err    error // the error Next last returned: the outcome Close records
	closed bool
}

// Next returns the next matching tuple in ascending score order. ok is
// false when the stream ends — exhausted (err nil) or failed (typed err) —
// and on a closed scanner, which reads nothing more: Close let go of the
// lock that kept the cube still under it.
func (g *GovernedScanner) Next() (res Result, ok bool, err error) {
	if g.closed {
		return Result{}, false, nil
	}
	defer func() {
		if r := recover(); r != nil {
			res, ok, err = Result{}, false, errs.FromPanic(r)
			g.err = err
		}
	}()
	res, ok = g.s.Next()
	return res, ok, nil
}

// Close ends the scan: it adds the scan's statistics to the Metrics it was
// opened with, records the scan — outcome, latency from OpenScan to Close,
// block reads — into the registry and, past the threshold, the slow-query
// log, and releases the cube's shared serving lock and admission slot held
// since OpenScan, so maintenance blocked behind the scan may proceed, and the
// scanner's storage. Close is idempotent.
func (g *GovernedScanner) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.s.Release()
	g.op.finish(g.err)
}
