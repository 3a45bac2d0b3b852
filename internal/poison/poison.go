// Package poison is a test hook for pooled storage. Built with the poison tag
// (go test -tags poison), On is true and the engines fill the storage they
// reuse with sentinels before they reset it — what a query takes from a pool,
// what a cube's encoder decodes a write's cells into, the buffer of a freed
// page: NaN scores, SIDs and TIDs out of every range, all-ones bit words,
// garbage where a nil is expected and garbage bytes. A reset that forgets a
// field then hands the query or the write garbage, which the tests see as a
// wrong answer, a wrong count or a wrong page, where a forgotten field in an
// ordinary build could hold a plausible value from the use before. In every
// other build On is false and Fill compiles to nothing.
package poison

import "math"

// Sentinels: a SID past every SID, a TID past every table, a score that
// compares false with everything, and the byte a freed page's buffer is
// filled with.
const (
	SID  = math.MaxUint64
	TID  = math.MaxInt32
	Byte = 0xA5
)

// Score is NaN.
var Score = math.NaN()

// Fill sets every element of s, up to its capacity, to v when On.
func Fill[T any](s []T, v T) {
	if !On {
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
