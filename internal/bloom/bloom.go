// Package bloom implements the bloom filter used to compress large
// state-signatures in the join-signature materialization (thesis §5.3.1):
// k hash functions map an entry to k positions in a bit array of b bits;
// membership tests have no false negatives and a tunable false-positive rate.
package bloom

import (
	"encoding/binary"
	"math"

	"rankcube/internal/bitvec"
)

// Filter is a bloom filter over uint64 keys.
type Filter struct {
	bits *bitvec.Bits
	k    int
}

// NewOptimal sizes a filter for n expected entries within at most maxBits
// bits, using the optimal hash count k = (b/n)·ln2 capped at maxK (thesis
// §5.3.1: b = min(P, k̄·n/ln2)).
func NewOptimal(n, maxBits, maxK int) *Filter {
	if n < 1 {
		n = 1
	}
	b := int(math.Ceil(float64(maxK) * float64(n) / math.Ln2))
	if b > maxBits {
		b = maxBits
	}
	if b < 8 {
		b = 8
	}
	k := int(math.Round(float64(b) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > maxK {
		k = maxK
	}
	return &Filter{bits: bitvec.NewBits(b), k: k}
}

// Add inserts key.
func (f *Filter) Add(key uint64) {
	h1, h2 := hash2(key)
	b := uint64(f.bits.Len())
	for i := 0; i < f.k; i++ {
		f.bits.Set(int((h1+uint64(i)*h2)%b), true)
	}
}

// MayContain reports whether key may have been inserted (false positives
// possible, false negatives impossible).
func (f *Filter) MayContain(key uint64) bool {
	h1, h2 := hash2(key)
	b := uint64(f.bits.Len())
	for i := 0; i < f.k; i++ {
		if !f.bits.Get(int((h1 + uint64(i)*h2) % b)) {
			return false
		}
	}
	return true
}

// Bits reports the filter size in bits.
func (f *Filter) Bits() int { return f.bits.Len() }

// hash2 derives two independent 64-bit hashes of key via FNV-1a over its
// bytes with two different bases (double hashing: position_i = h1 + i·h2).
func hash2(key uint64) (uint64, uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	const (
		offset1 = 14695981039346656037
		offset2 = 0x9e3779b97f4a7c15
		prime   = 1099511628211
	)
	h1 := uint64(offset1)
	h2 := uint64(offset2)
	for _, c := range buf {
		h1 = (h1 ^ uint64(c)) * prime
		h2 = (h2 ^ uint64(c^0xa5)) * prime
	}
	if h2 == 0 {
		h2 = 1
	}
	// Force h2 odd so it is coprime with power-of-two table sizes.
	h2 |= 1
	return h1, h2
}
