// Package errs defines the typed error taxonomy of query execution — the
// cancellation and budgets stats.Counters enforces, the admission gate, and
// the fault/degradation layer — plus the abort machinery that carries those
// errors out of deep search loops.
//
// # Taxonomy
//
// Every failure a query can hit maps to exactly one sentinel, so callers
// can switch on errors.Is:
//
//   - ErrCanceled — the query's context was canceled or its deadline
//     passed, mid-search or while queued at admission. The error (Canceled)
//     also matches the context's own error. Never triggers degradation: the
//     caller asked to stop.
//   - ErrBudgetExceeded — a per-query resource budget (block reads,
//     candidate-buffer entries) tripped mid-search. Degrades to a baseline
//     scan only when the caller opted in (the scan usually costs more than
//     the budget allowed).
//   - ErrPageCorrupt — a pager page failed checksum verification. The
//     owning store is quarantined; degradable.
//   - ErrReadFailed — a page read kept failing after the pager's
//     retry/backoff schedule was exhausted; degradable.
//   - ErrStructureUnavailable — a storage structure is quarantined after
//     earlier corruption and refuses access; degradable.
//   - ErrInternal — a panic escaped engine code and was converted at the
//     public API boundary; degradable (the baseline path shares no state
//     with the failed engine).
//   - ErrInvalidArgument — the caller handed the API a malformed request
//     (inconsistent schema, missing snapshot, unsupported operation on
//     this structure). Never degrades: a baseline scan cannot answer a
//     question that was ill-posed.
//   - ErrOverloaded — the admission gate refused the query: the serving
//     capacity is saturated, the wait queue is full, the query's deadline
//     would expire before it could run, or the gate is draining for
//     shutdown. Never degrades: shedding load by running a full baseline
//     scan would make the overload worse. Retry later or against another
//     replica.
//
// # Aborts
//
// The engines' search loops are deep call trees threaded through the pager
// at block-access granularity; returning errors through every frame would
// put fault handling on the per-tuple hot path. Instead, fault sites call
// [Abortf] (a typed panic, the pattern encoding/json uses for its internal
// error flow), and the public API boundary calls [FromPanic] in a deferred
// recover to turn it back into an error. An abort is never visible to
// callers as a panic.
package errs

import (
	"errors"
	"fmt"
)

// Sentinel errors of the robustness layer. Wrapped errors always satisfy
// errors.Is against exactly one of these.
var (
	ErrCanceled             = errors.New("query canceled")
	ErrBudgetExceeded       = errors.New("query budget exceeded")
	ErrPageCorrupt          = errors.New("page corrupt")
	ErrReadFailed           = errors.New("page read failed")
	ErrStructureUnavailable = errors.New("structure unavailable")
	ErrInternal             = errors.New("internal engine fault")
	ErrInvalidArgument      = errors.New("invalid argument")
	ErrOverloaded           = errors.New("server overloaded")
)

// Canceled returns the error of an operation its context stopped, given the
// context's error as cause: it matches ErrCanceled and cause
// (context.Canceled or context.DeadlineExceeded) alike.
func Canceled(cause error) error {
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// abort is the payload of a typed abort panic. It deliberately does not
// implement error so a stray abort that escapes recovery is loud.
type abort struct{ err error }

// Abort unwinds the current query with err via a typed panic. The public
// API boundary (or any intermediate recover using FromPanic) converts it
// back into the error.
func Abort(err error) {
	panic(abort{err: err})
}

// Abortf aborts with an error wrapping the given sentinel:
// "<formatted message>: <sentinel>".
func Abortf(sentinel error, format string, args ...any) {
	Abort(fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), sentinel))
}

// FromPanic converts a recovered panic value into a typed error: aborts
// yield their carried error, anything else wraps ErrInternal. It returns
// nil for a nil recover value so it can be called unconditionally:
//
//	defer func() { err = errs.FromPanic(recover()) }()
func FromPanic(r any) error {
	if r == nil {
		return nil
	}
	if a, ok := r.(abort); ok {
		return a.err
	}
	return fmt.Errorf("engine panic: %v: %w", r, ErrInternal)
}

// IsAbort reports whether a recovered panic value is a typed abort, and if
// so returns its error. Non-abort panics should usually be re-panicked by
// intermediate recovery sites so real bugs keep their stack traces.
func IsAbort(r any) (error, bool) {
	a, ok := r.(abort)
	if !ok {
		return nil, false
	}
	return a.err, true
}

// Degradable reports whether err is a fault the degradation policy may
// transparently answer from a baseline scan instead: storage-level faults
// and recovered engine panics qualify; cancellation and budget trips do
// not (budget degradation is a separate caller opt-in).
func Degradable(err error) bool {
	return errors.Is(err, ErrPageCorrupt) ||
		errors.Is(err, ErrReadFailed) ||
		errors.Is(err, ErrStructureUnavailable) ||
		errors.Is(err, ErrInternal)
}
