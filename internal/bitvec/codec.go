package bitvec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"rankcube/internal/errs"
)

// Coding schemes for signature nodes (thesis Table 4.2 / §4.2.2). The 3-bit
// CS header uses 000 for the baseline coding; otherwise the first two bits
// select the method (01 PI, 10 RL, 11 PC) and the last bit selects sparse
// (0, encode the 1s) or dense (1, encode the 0s).
const (
	SchemeBL       = 0b000
	SchemePISparse = 0b010
	SchemePIDense  = 0b011
	SchemeRLSparse = 0b100
	SchemeRLDense  = 0b101
	SchemePCSparse = 0b110
	SchemePCDense  = 0b111
)

// SchemeName renders a scheme id for diagnostics.
func SchemeName(s int) string {
	switch s {
	case SchemeBL:
		return "BL"
	case SchemePISparse:
		return "PI/sparse"
	case SchemePIDense:
		return "PI/dense"
	case SchemeRLSparse:
		return "RL/sparse"
	case SchemeRLDense:
		return "RL/dense"
	case SchemePCSparse:
		return "PC/sparse"
	case SchemePCDense:
		return "PC/dense"
	default:
		return fmt.Sprintf("scheme(%d)", s)
	}
}

var allSchemes = []int{
	SchemeBL,
	SchemePISparse, SchemePIDense,
	SchemeRLSparse, SchemeRLDense,
	SchemePCSparse, SchemePCDense,
}

// Codec encodes and decodes signature-node bit arrays whose length is at
// most M (the maximum node fanout). A node encoding is
//
//	[CS: 3 bits][Len: lenBits][coding region: Len+1 bits]
//
// following the unified coding structure of thesis fig. 4.4 (Len uses
// one-less coding). Every coding region begins with the array length b−1 in
// ceil(log2 M) bits so decoders can restore truncated trailing bits.
//
// Deviation from the thesis' run-length description: run values i are coded
// as Elias-γ of i+1 (unary length prefix in 1s, 0 terminator, then the
// remaining low bits) because the thesis' ⌈log2(i+1)⌉-bit scheme cannot
// represent a zero-length run unambiguously.
type Codec struct {
	m       int
	nbits   int // position width: bits to address [0, M)
	lenBits int // width of the Len field
	pbits   int // PC prefix width
}

// NewCodec returns a codec for node arrays of length at most m (m ≥ 2).
func NewCodec(m int) *Codec {
	if m < 2 {
		//lint:invariant fanout is fixed at build time by the partition config
		panic("bitvec: codec fanout must be >= 2")
	}
	nbits := BitsFor(m)
	// Coding regions are capped at nbits + 2m bits; BL (nbits + b ≤ nbits+m)
	// always fits, so adaptive selection can always fall back.
	regionCap := nbits + 2*m
	return &Codec{m: m, nbits: nbits, lenBits: BitsFor(regionCap + 1), pbits: prefixBits(nbits)}
}

// HeaderBits reports the fixed per-node overhead (CS + Len fields).
func (c *Codec) HeaderBits() int { return 3 + c.lenBits }

func (c *Codec) regionCap() int { return c.nbits + 2*c.m }

// Encode writes b with the scheme yielding the smallest region ("adaptively
// choose the best coding scheme", §4.2.2) and returns the scheme used.
func (c *Codec) Encode(w *Writer, b *Bits) int {
	best, n := c.choose(b)
	c.encode(w, b, best, n)
	return best
}

// choose sizes b under each scheme and returns the first with the smallest
// region, and that size. A scheme that spends at least a bit (RL), a suffix
// (PC) or a position (PI) on every marked slot is not walked when that alone
// cannot beat the best so far.
func (c *Codec) choose(b *Bits) (best, bestBits int) {
	best, bestBits = SchemeBL, math.MaxInt
	per := [4]int{0, c.nbits, 1, c.nbits - c.pbits} // by method: BL, PI, RL, PC
	marked := [2]int{b.Ones(), b.Len() - b.Ones()}  // sparse, dense
	for _, s := range allSchemes {
		if c.nbits+marked[s&1]*per[s>>1] >= bestBits {
			continue
		}
		if n, ok := c.regionBits(b, s); ok && n < bestBits {
			best, bestBits = s, n
		}
	}
	if bestBits == math.MaxInt {
		//lint:invariant BL fits every array of 1..M slots; a miss is a node the partition cannot have
		panic(fmt.Sprintf("bitvec: no coding for a %d-slot array under fanout %d", b.Len(), c.m))
	}
	return best, bestBits
}

// EncodeBaseline writes b with the baseline scheme only (the "Baseline"
// series of thesis fig. 4.10).
func (c *Codec) EncodeBaseline(w *Writer, b *Bits) { c.EncodeWith(w, b, SchemeBL) }

// EncodeWith writes b under an explicit scheme. It panics if the region
// exceeds the codec's cap (callers select schemes via Encode).
func (c *Codec) EncodeWith(w *Writer, b *Bits, scheme int) {
	n, ok := c.regionBits(b, scheme)
	if !ok {
		//lint:invariant Encode pre-selects a scheme that fits; a miss is a codec bug
		panic(fmt.Sprintf("bitvec: %s region for %d-bit array exceeds cap", SchemeName(scheme), b.Len()))
	}
	c.encode(w, b, scheme, n)
}

// encode writes b under scheme, whose region regionBits sized at n bits.
func (c *Codec) encode(w *Writer, b *Bits, scheme, n int) {
	w.WriteBits(uint64(scheme), 3)
	w.WriteBits(uint64(n-1), c.lenBits)
	start := w.Len()
	c.writeRegion(w, b, scheme)
	if w.Len()-start != n {
		//lint:invariant writer must emit exactly the region size it computed
		panic(fmt.Sprintf("bitvec: %s region size mismatch: wrote %d want %d", SchemeName(scheme), w.Len()-start, n))
	}
}

// Decode reads one node array into storage of its own.
func (c *Codec) Decode(r *Reader) *Bits { return c.DecodeIn(r, nil) }

// DecodeIn reads one node array, taking its storage from a (nil allocates).
// The bytes come off a stored page: a field no encoder writes — an unknown
// scheme, a length over M, a position past the array, a region that does not
// end where its header says — aborts with a typed errs.ErrPageCorrupt.
func (c *Codec) DecodeIn(r *Reader, a *Arena) *Bits {
	scheme := int(r.ReadBits(3))
	region := int(r.ReadBits(c.lenBits)) + 1
	end := r.Pos() + region
	blen := int(r.ReadBits(c.nbits)) + 1
	if blen > c.m {
		errs.Abortf(errs.ErrPageCorrupt, "bitvec: node of %d slots exceeds fanout %d", blen, c.m)
	}
	out := a.New(blen)
	switch scheme {
	case SchemeBL:
		for i := 0; i < blen; i += 32 {
			n := blen - i
			if n > 32 {
				n = 32
			}
			out.setField(i, r.ReadBits(n))
		}
	case SchemePISparse, SchemePIDense:
		for r.Pos() < end {
			pos := int(r.ReadBits(c.nbits))
			if pos >= blen {
				badPosition(scheme, pos, blen)
			}
			out.Set(pos, true)
		}
	case SchemeRLSparse, SchemeRLDense:
		i := 0
		for r.Pos() < end {
			i += c.readGamma(r)
			if i >= blen {
				badPosition(scheme, i, blen)
			}
			out.Set(i, true)
			i++
		}
	case SchemePCSparse, SchemePCDense:
		p := c.pbits
		sbits := c.nbits - p
		for r.Pos() < end {
			prefix := int(r.ReadBits(p))
			count := int(r.ReadBits(sbits)) + 1
			for j := 0; j < count; j++ {
				pos := prefix<<uint(sbits) | int(r.ReadBits(sbits))
				if pos >= blen {
					badPosition(scheme, pos, blen)
				}
				out.Set(pos, true)
			}
		}
	default:
		errs.Abortf(errs.ErrPageCorrupt, "bitvec: unknown scheme %d", scheme)
	}
	if r.Pos() != end {
		errs.Abortf(errs.ErrPageCorrupt, "bitvec: %s region ends at bit %d, header says %d", SchemeName(scheme), r.Pos(), end)
	}
	if scheme != SchemeBL && scheme&1 == 1 {
		out.Not() // dense codings mark the 0 positions
	}
	return out
}

// Skip steps r over one node encoding without decoding it, by the region
// length in its header. Only a region that runs past the page aborts (with a
// typed errs.ErrPageCorrupt); what the region holds is DecodeIn's to check.
func (c *Codec) Skip(r *Reader) {
	region := int(r.ReadBits(3+c.lenBits)>>3) + 1 // past the 3-bit CS field
	if region > r.Remaining() {
		r.overrun(region)
	}
	r.pos += region
}

func badPosition(scheme, pos, blen int) {
	errs.Abortf(errs.ErrPageCorrupt, "bitvec: %s position %d past a %d-slot node", SchemeName(scheme), pos, blen)
}

// regionBits computes the coding-region size of b under scheme, and whether
// it fits the cap.
func (c *Codec) regionBits(b *Bits, scheme int) (int, bool) {
	if b.Len() > c.m || b.Len() == 0 {
		return 0, false
	}
	n := c.nbits // every region carries b-1
	dense := scheme&1 == 1
	switch scheme {
	case SchemeBL:
		n += b.Len()
	case SchemePISparse, SchemePIDense:
		n += c.count(b, dense) * c.nbits
	case SchemeRLSparse, SchemeRLDense:
		n += c.runBits(b, dense)
	case SchemePCSparse, SchemePCDense:
		n += c.pcBits(b, dense)
	}
	if n > c.regionCap() {
		return 0, false
	}
	return n, true
}

func (c *Codec) writeRegion(w *Writer, b *Bits, scheme int) {
	w.WriteBits(uint64(b.Len()-1), c.nbits)
	dense := scheme&1 == 1
	switch scheme {
	case SchemeBL:
		for i := 0; i < b.Len(); i += 32 {
			n := min(b.Len()-i, 32)
			w.WriteBits(b.field(i, n), n)
		}
	case SchemePISparse, SchemePIDense:
		for pos := nextMarked(b, 0, dense); pos >= 0; pos = nextMarked(b, pos+1, dense) {
			w.WriteBits(uint64(pos), c.nbits)
		}
	case SchemeRLSparse, SchemeRLDense:
		prev := -1
		for pos := nextMarked(b, 0, dense); pos >= 0; pos = nextMarked(b, pos+1, dense) {
			c.writeGamma(w, pos-prev-1)
			prev = pos
		}
	case SchemePCSparse, SchemePCDense:
		p := c.pbits
		sbits := uint(c.nbits - p)
		for pos := nextMarked(b, 0, dense); pos >= 0; {
			// A group is the marked positions sharing a prefix: its size goes
			// ahead of its suffixes, so the group is walked twice.
			prefix, size := pos>>sbits, 0
			for q := pos; q >= 0 && q>>sbits == prefix; q = nextMarked(b, q+1, dense) {
				size++
			}
			w.WriteBits(uint64(prefix), p)
			w.WriteBits(uint64(size-1), int(sbits))
			for ; pos >= 0 && pos>>sbits == prefix; pos = nextMarked(b, pos+1, dense) {
				w.WriteBits(uint64(pos&(1<<sbits-1)), int(sbits))
			}
		}
	}
}

// nextMarked returns the first marked position of b at or after i — a 1 under
// a sparse scheme, a 0 under a dense one — or -1 when none remains.
func nextMarked(b *Bits, i int, dense bool) int {
	if dense {
		return b.NextZero(i)
	}
	return b.NextOne(i)
}

func (c *Codec) count(b *Bits, dense bool) int {
	if dense {
		return b.Len() - b.Ones()
	}
	return b.Ones()
}

// runBits sizes the RL payload: Elias-γ of (gap+1) per marked position.
func (c *Codec) runBits(b *Bits, dense bool) int {
	total := 0
	prev := -1
	for pos := nextMarked(b, 0, dense); pos >= 0; pos = nextMarked(b, pos+1, dense) {
		total += gammaBits(pos - prev - 1)
		prev = pos
	}
	return total
}

// pcBits sizes the PC payload: a prefix and a size per group, a suffix per
// marked position.
func (c *Codec) pcBits(b *Bits, dense bool) int {
	p := c.pbits
	sbits := c.nbits - p
	total := 0
	last := -1
	for pos := nextMarked(b, 0, dense); pos >= 0; pos = nextMarked(b, pos+1, dense) {
		if prefix := pos >> uint(sbits); prefix != last {
			total += p + sbits
			last = prefix
		}
		total += sbits
	}
	return total
}

// prefixBits computes the PC prefix length p = log2(2^n / (n ln 2)) for
// n-bit positions (thesis §4.2.2, from [31]), clamped to keep both prefix and
// suffix non-empty.
func prefixBits(nbits int) int {
	n := float64(nbits)
	p := int(math.Round(math.Log2(math.Exp2(n) / (n * math.Ln2))))
	return max(1, min(p, nbits-1))
}

// writeGamma emits run value i ≥ 0 as Elias-γ of g = i+1: (len(g)−1) 1s, a
// 0 terminator, then the low len(g)−1 bits of g.
func (c *Codec) writeGamma(w *Writer, i int) {
	g := uint64(i + 1)
	l := uint(bits.Len64(g))
	w.WriteBits(1<<(l-1)-1|(g&(1<<(l-1)-1))<<l, int(2*l-1))
}

// readGamma reads one run value. The unary prefix is capped at 31 bits — no
// node has 2^31 slots — so corrupt bytes cannot overflow the value. Where the
// eight bytes at the reader hold the whole code — a prefix of at most 27 bits
// — it takes prefix and payload from one load; anything else, a code at the
// page's end or a corrupt one included, goes through ReadUnary and ReadBits,
// which abort as they always have.
func (c *Codec) readGamma(r *Reader) int {
	if i := r.pos / 8; i+8 <= len(r.buf) {
		w := binary.LittleEndian.Uint64(r.buf[i:]) >> (uint(r.pos) % 8)
		if l := bits.TrailingZeros64(^w); l <= 27 {
			r.pos += 2*l + 1
			return int(1<<uint(l)|w>>uint(l+1)&(1<<uint(l)-1)) - 1
		}
	}
	l := r.ReadUnary(31)
	return int(uint64(1)<<uint(l)|r.ReadBits(l)) - 1
}

// gammaBits sizes writeGamma's output.
func gammaBits(i int) int {
	g := uint(i + 1)
	l := bits.Len(g)
	return 2*l - 1
}
