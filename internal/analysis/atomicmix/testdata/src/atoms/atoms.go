// Package atoms exercises atomicmix: a package-level sync/atomic call is
// flagged unless marked, and the typed atomics stay clean.
package atoms

import "sync/atomic"

// S carries one counter updated through the package-level functions and
// one typed atomic.
type S struct {
	N     int64
	Typed atomic.Int64
}

// Inc hands a plain field to sync/atomic: a plain access elsewhere would race.
func Inc(s *S) {
	atomic.AddInt64(&s.N, 1) // want `call to a sync/atomic package-level function`
}

// MarkedLoad is a justified call.
func MarkedLoad(s *S) int64 {
	//lint:atomicmix fixture: the field is never accessed plainly
	return atomic.LoadInt64(&s.N)
}

// TypedInc and TypedGet use the typed atomic's methods: clean.
func TypedInc(s *S) { s.Typed.Add(1) }

func TypedGet(s *S) int64 { return s.Typed.Load() }

// AddInt64 shares a sync/atomic function's name but not its package: clean.
func AddInt64(p *int64, d int64) int64 { *p += d; return *p }

func Local(s *S) int64 { return AddInt64(&s.N, 1) }
