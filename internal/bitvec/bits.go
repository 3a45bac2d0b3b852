// Package bitvec provides bit arrays, a bit-granular reader/writer, and the
// node-level signature codecs of thesis §4.2.2: baseline (BL), run-length
// (RL), position-index (PI) and prefix-compression (PC) coding, each with
// dense and sparse variants, selected adaptively per node.
package bitvec

import (
	"encoding/binary"
	"math/bits"

	"rankcube/internal/errs"
)

// Bits is a growable bit array.
type Bits struct {
	words []uint64
	n     int
}

// NewBits returns a zeroed bit array of length n.
func NewBits(n int) *Bits {
	return &Bits{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the number of bits.
func (b *Bits) Len() int { return b.n }

// Get reports bit i.
func (b *Bits) Get(i int) bool {
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Set sets bit i to v.
func (b *Bits) Set(i int, v bool) {
	if v {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// setField ors v, at most 32 bits wide, into the positions from i on, i a
// multiple of 32 — how decoders fill an array a chunk at a time.
func (b *Bits) setField(i int, v uint64) {
	b.words[i/64] |= v << (uint(i) % 64)
}

// field returns the n ≤ 32 bits from position i on, i a multiple of 32 —
// setField's inverse, for encoders.
func (b *Bits) field(i, n int) uint64 {
	return b.words[i/64] >> (uint(i) % 64) & (1<<uint(n) - 1)
}

// Grow widens b to n bits, the new positions clear.
func (b *Bits) Grow(n int) {
	for len(b.words) < (n+63)/64 {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// Ones reports the number of set bits.
func (b *Bits) Ones() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextOne returns the index of the first set bit at or after i, or -1 when
// none remains — the word-at-a-time enumeration of a node's marked slots:
//
//	for i := b.NextOne(0); i >= 0; i = b.NextOne(i + 1) { … }
func (b *Bits) NextOne(i int) int {
	if i >= b.n {
		return -1
	}
	w := i / 64
	if word := b.words[w] >> (uint(i) % 64); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w*64 + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// NextZero is NextOne for clear bits.
func (b *Bits) NextZero(i int) int {
	if i >= b.n {
		return -1
	}
	w := i / 64
	word := ^b.words[w] >> (uint(i) % 64)
	for word == 0 {
		if w++; w == len(b.words) {
			return -1
		}
		i, word = w*64, ^b.words[w]
	}
	// The unused high bits of the last word are clear, and not positions.
	if i += bits.TrailingZeros64(word); i < b.n {
		return i
	}
	return -1
}

// SetAll resizes b to n bits, all set, reusing its storage.
func (b *Bits) SetAll(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.n = n
	b.trim()
}

// trim clears the unused high bits of the last word; every operation keeps
// them clear so word-level And, Any and NextOne need no length checks.
func (b *Bits) trim() {
	if r := uint(b.n) % 64; r != 0 {
		b.words[len(b.words)-1] &= 1<<r - 1
	}
}

// Not flips every bit in place.
func (b *Bits) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
}

// And sets b to b & o, keeping b's length. Positions beyond o's length
// count as clear, so a signature node narrower than its index node (slots
// appended since the cell was last written) masks the extra slots out.
func (b *Bits) And(o *Bits) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &= o.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// Any reports whether any bit is set.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bits) Clone() *Bits {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bits{words: w, n: b.n}
}

// String renders the bits as a 0/1 string, low index first.
func (b *Bits) String() string {
	out := make([]byte, b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// Writer appends bit fields to a byte buffer, LSB-first within each field.
type Writer struct {
	buf  []byte
	nbit int
}

// Reset empties the writer, keeping its buffer for the next encoding.
func (w *Writer) Reset() { w.buf, w.nbit = w.buf[:0], 0 }

// WriteBits appends the low width bits of v (at most 64): the open bits of
// the last byte first, then the rest as one little-endian word cut to
// length — the mirror of the Reader's eight-byte load.
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	off := uint(w.nbit) % 8
	w.nbit += width
	if off != 0 {
		w.buf[len(w.buf)-1] |= byte(v << off)
		v >>= 8 - off
		width -= int(8 - off)
	}
	if width > 0 {
		n := len(w.buf) + (width+7)/8
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)[:n]
	}
}

// Copy appends the n bits of buf from bit offset off on: an encoding lifted
// verbatim from the page it was read from.
func (w *Writer) Copy(buf []byte, off, n int) {
	r := Reader{buf: buf, pos: off}
	for ; n > 56; n -= 56 {
		w.WriteBits(r.ReadBits(56), 56)
	}
	w.WriteBits(r.ReadBits(n), n)
}

// Len reports the number of bits written.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the encoded buffer (the final byte may be partially used).
func (w *Writer) Bytes() []byte { return w.buf }

// Reader consumes bit fields from a byte buffer written by Writer.
type Reader struct {
	buf []byte
	pos int
}

// NewReader reads from buf starting at bit offset 0.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits consumes width bits (at most 64) and returns them as an integer
// (LSB-first). The buffer is a stored page: running off its end means the
// bytes are corrupt, and aborts with a typed errs.ErrPageCorrupt.
func (r *Reader) ReadBits(width int) uint64 {
	if width > r.Remaining() {
		r.overrun(width)
	}
	i, off := r.pos/8, uint(r.pos)%8
	if width <= 56 && i+8 <= len(r.buf) {
		// The field lies within the eight bytes at i: one load, no loop.
		r.pos += width
		return binary.LittleEndian.Uint64(r.buf[i:]) >> off & (1<<uint(width) - 1)
	}
	var v uint64
	for got := 0; got < width; {
		off := uint(r.pos) % 8
		take := 8 - int(off)
		if take > width-got {
			take = width - got
		}
		chunk := uint64(r.buf[r.pos/8]>>off) & (1<<uint(take) - 1)
		v |= chunk << uint(got)
		got += take
		r.pos += take
	}
	return v
}

func (r *Reader) overrun(width int) {
	errs.Abortf(errs.ErrPageCorrupt, "bitvec: %d-bit field at bit %d runs past the %d-byte page",
		width, r.pos, len(r.buf))
}

// ReadUnary consumes a run of 1 bits and the 0 that ends it, and returns the
// run's length, which must not exceed limit (at most 55).
func (r *Reader) ReadUnary(limit int) int {
	width := limit + 1
	if rem := r.Remaining(); width > rem {
		width = rem
	}
	pos := r.pos
	ones := bits.TrailingZeros64(^r.ReadBits(width))
	if ones >= width {
		errs.Abortf(errs.ErrPageCorrupt, "bitvec: unary run at bit %d has no end within %d bits", pos, width)
	}
	r.pos = pos + ones + 1
	return ones
}

// Pos reports the current bit offset.
func (r *Reader) Pos() int { return r.pos }

// Seek moves the reader to bit offset pos, one Pos returned.
func (r *Reader) Seek(pos int) { r.pos = pos }

// Remaining reports how many bits remain.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }

// Arena hands out bit arrays carved from shared slabs, so decoding the
// nodes of a signature costs a few allocations instead of two per node.
// Arrays stay valid for the arena's lifetime; nothing is ever handed out
// twice. A nil *Arena allocates each array on its own.
type Arena struct {
	vals  []Bits
	words []uint64
}

// Slab sizes: 64 headers and 256 words are 2 KB each. A view decodes only the
// nodes its query reaches, often fewer than one slab holds.
const (
	arenaVals  = 64
	arenaWords = 256
)

// New returns a zeroed bit array of length n.
func (a *Arena) New(n int) *Bits {
	if a == nil {
		return NewBits(n)
	}
	nw := (n + 63) / 64
	if len(a.words)+nw > cap(a.words) {
		size := arenaWords
		if nw > size {
			size = nw
		}
		a.words = make([]uint64, 0, size)
	}
	lo := len(a.words)
	a.words = a.words[:lo+nw]
	if len(a.vals) == cap(a.vals) {
		a.vals = make([]Bits, 0, arenaVals)
	}
	a.vals = append(a.vals, Bits{words: a.words[lo : lo+nw : lo+nw], n: n})
	return &a.vals[len(a.vals)-1]
}

// BitsFor returns the number of bits needed to represent values in [0, n)
// (at least 1).
func BitsFor(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
