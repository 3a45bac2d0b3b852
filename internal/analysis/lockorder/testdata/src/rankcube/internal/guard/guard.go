// Package guard stubs the repository's serving control block under its
// real import path: just enough surface for the lockorder fixtures.
package guard

import "context"

// RW is one structure's serving control block.
type RW struct{ id uint64 }

// AcquireShared read-locks every control in global ID order.
func AcquireShared(ctx context.Context, gs []*RW) (release func(), err error) {
	return func() {}, nil
}

// LockExclusive write-locks every control in global ID order.
func LockExclusive(gs []*RW) (release func()) {
	return func() {}
}
