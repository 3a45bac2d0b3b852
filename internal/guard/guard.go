// Package guard provides the serving control block shared engine
// structures carry: a reader/writer lock over the structure, a
// process-unique ordering ID so multi-structure operations can acquire
// several locks without deadlocking, and the slot for the structure's
// optional admission gate.
//
// Concurrent queries hold the lock shared; maintenance (insert, delete,
// repartition, repair) holds it exclusive. A query spanning several
// structures (the rank join) acquires every control in ascending ID order —
// with a single global order, no cycle of waiters can form, even though
// Go's RWMutex blocks new readers while a writer waits.
package guard

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"rankcube/internal/admission"
)

// nextID issues process-unique ordering IDs.
var nextID atomic.Uint64

// RW is one structure's serving control block. It must only be shared by
// pointer; New is the only constructor. All methods are nil-safe so callers
// can thread an optional control without branching.
type RW struct {
	id   uint64
	mu   sync.RWMutex
	gate atomic.Pointer[admission.Gate]
}

// New returns a fresh control with the next ordering ID.
func New() *RW { return &RW{id: nextID.Add(1)} }

// ID reports the control's position in the global acquisition order.
func (g *RW) ID() uint64 {
	if g == nil {
		return 0
	}
	return g.id
}

// Lock acquires the control exclusively (maintenance).
func (g *RW) Lock() {
	if g != nil {
		g.mu.Lock()
	}
}

// Unlock releases an exclusive hold.
func (g *RW) Unlock() {
	if g != nil {
		g.mu.Unlock()
	}
}

// RLock acquires the control shared (queries).
func (g *RW) RLock() {
	if g != nil {
		g.mu.RLock()
	}
}

// RUnlock releases a shared hold.
func (g *RW) RUnlock() {
	if g != nil {
		g.mu.RUnlock()
	}
}

// SetGate attaches (or with nil detaches) the structure's admission gate.
// Safe to call while queries run; queries already admitted by the old gate
// release against it.
func (g *RW) SetGate(gt *admission.Gate) {
	if g != nil {
		g.gate.Store(gt)
	}
}

// Gate returns the attached admission gate, possibly nil (a nil *Gate
// admits everything).
func (g *RW) Gate() *admission.Gate {
	if g == nil {
		return nil
	}
	return g.gate.Load()
}

// Order returns the given controls deduplicated and sorted ascending by ID
// — the canonical multi-structure acquisition order. Nils are dropped.
func Order(gs ...*RW) []*RW {
	out := make([]*RW, 0, len(gs))
	seen := make(map[*RW]bool, len(gs))
	for _, g := range gs {
		if g == nil || seen[g] {
			continue
		}
		seen[g] = true
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// AcquireShared admits the calling query through every control's gate and
// read-locks every control, in Order. On gate rejection it undoes what it
// acquired and returns the gate's typed error. The returned release undoes
// everything in reverse and must be called exactly once. One control — every
// operation but the rank join — has nothing to order and allocates only the
// release.
func AcquireShared(ctx context.Context, gs []*RW) (release func(), err error) {
	if len(gs) == 1 {
		g := gs[0]
		r, err := g.Gate().Acquire(ctx)
		if err != nil {
			return nil, err
		}
		g.RLock()
		return func() { g.RUnlock(); r() }, nil
	}
	gs = Order(gs...)
	releases := make([]func(), 0, len(gs))
	for _, g := range gs {
		r, err := g.Gate().Acquire(ctx)
		if err != nil {
			for i := len(releases) - 1; i >= 0; i-- {
				releases[i]()
			}
			return nil, err
		}
		releases = append(releases, r)
	}
	for _, g := range gs {
		g.RLock()
	}
	return func() {
		for i := len(gs) - 1; i >= 0; i-- {
			gs[i].RUnlock()
		}
		for i := len(releases) - 1; i >= 0; i-- {
			releases[i]()
		}
	}, nil
}

// LockExclusive write-locks every control in Order, returning the unlock.
// Maintenance is not admission-gated: the exclusive lock already serializes
// it, and shedding maintenance would lose data rather than load.
func LockExclusive(gs []*RW) (release func()) {
	gs = Order(gs...)
	for _, g := range gs {
		g.Lock()
	}
	return func() {
		for i := len(gs) - 1; i >= 0; i-- {
			gs[i].Unlock()
		}
	}
}
