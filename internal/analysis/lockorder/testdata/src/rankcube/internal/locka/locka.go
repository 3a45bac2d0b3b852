// Package locka exercises the lockorder analyzer: the release closures
// returned by the guard helpers must be consumed.
package locka

import (
	"context"

	"rankcube/internal/guard"
)

func work() int { return 1 }

// HelperDeferred consumes the release closure through a binding and a
// defer — the canonical runQuery shape.
func HelperDeferred(ctx context.Context, gs []*guard.RW) (int, error) {
	release, err := guard.AcquireShared(ctx, gs)
	if err != nil {
		return 0, err
	}
	defer release()
	return work(), nil
}

// HelperInPlace invokes the helper's release via an immediate defer.
func HelperInPlace(gs []*guard.RW) int {
	defer guard.LockExclusive(gs)()
	return work()
}

// HelperDropped discards the release closure: the locks are held forever.
func HelperDropped(gs []*guard.RW) {
	guard.LockExclusive(gs) // want `release closure returned by guard.LockExclusive is never consumed`
}

// HelperBlanked drops the release through the blank identifier.
func HelperBlanked(ctx context.Context, gs []*guard.RW) {
	_, _ = guard.AcquireShared(ctx, gs) // want `release closure returned by guard.AcquireShared is never consumed`
}

// HelperReturned transfers the obligation to the caller.
func HelperReturned(gs []*guard.RW) func() {
	return guard.LockExclusive(gs)
}

// scan mimics the GovernedScanner shape: the release rides inside the
// returned value, whose Close is responsible for it.
type scan struct{ unlock func() }

// HelperStored stores the release closure in a literal: consumed.
func HelperStored(gs []*guard.RW) *scan {
	return &scan{unlock: guard.LockExclusive(gs)}
}

// HelperBoundStored binds the release first, then hands it to the scan.
func HelperBoundStored(ctx context.Context, gs []*guard.RW) (*scan, error) {
	release, err := guard.AcquireShared(ctx, gs)
	if err != nil {
		return nil, err
	}
	return &scan{unlock: release}, nil
}

// HelperMarked is exempt by marker.
func HelperMarked(gs []*guard.RW) {
	//lint:lockorder fixture: leak is intentional here
	guard.LockExclusive(gs)
}
