// Package stats stubs the repository's metrics collector under its real
// import path, just enough to type-check the governedio fixtures.
package stats

// Structure identifies a storage structure for read accounting.
type Structure uint8

// The structures the fixtures read.
const (
	StructRTree Structure = iota
	StructSignature
	numStructures
)

// Counters accumulates per-query metrics. Methods are nil-safe, which is
// exactly why passing nil must be justified: it silently disables the
// governor.
type Counters struct{ reads [numStructures]int64 }

// Read records n block reads against s.
func (c *Counters) Read(s Structure, n int64) {
	if c == nil {
		return
	}
	c.reads[s] += n
}
