package bitvec

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rankcube/internal/errs"
)

func TestBitsBasics(t *testing.T) {
	b := NewBits(130)
	b.Set(0, true)
	b.Set(64, true)
	b.Set(129, true)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get/Set mismatch")
	}
	if b.Ones() != 3 {
		t.Fatalf("Ones = %d", b.Ones())
	}
	b.Set(64, false)
	if b.Ones() != 2 {
		t.Fatalf("Ones after clear = %d", b.Ones())
	}
}

func TestBitsAndClone(t *testing.T) {
	a := NewBits(10)
	b := NewBits(10)
	a.Set(1, true)
	a.Set(3, true)
	b.Set(3, true)
	b.Set(5, true)
	d := a.Clone()
	d.And(b)
	if d.String() != "0001000000" || a.String() != "0101000000" {
		t.Fatalf("And of a clone = %s, the original %s", d, a)
	}
	if !a.Any() || NewBits(4).Any() {
		t.Fatal("Any mismatch")
	}
}

func TestWriterReaderRoundtrip(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011, 4)
	w.WriteBits(1, 1)
	w.WriteBits(1023, 10)
	w.WriteBits(0, 3)
	w.WriteBits(0xDEADBEEF, 32)
	r := NewReader(w.Bytes())
	if r.ReadBits(4) != 0b1011 {
		t.Fatal("4-bit field mismatch")
	}
	if r.ReadBits(1) != 1 {
		t.Fatal("bit mismatch")
	}
	if r.ReadBits(10) != 1023 {
		t.Fatal("10-bit field mismatch")
	}
	if r.ReadBits(3) != 0 {
		t.Fatal("3-bit field mismatch")
	}
	if r.ReadBits(32) != 0xDEADBEEF {
		t.Fatal("32-bit field mismatch")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 204: 8, 256: 8, 257: 9}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Fatalf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// roundtrip encodes b under every scheme that fits and checks decoding
// restores it exactly.
func roundtrip(t *testing.T, c *Codec, b *Bits) {
	t.Helper()
	for _, scheme := range allSchemes {
		if _, ok := c.regionBits(b, scheme); !ok {
			continue
		}
		var w Writer
		c.EncodeWith(&w, b, scheme)
		got := c.Decode(NewReader(w.Bytes()))
		if got.String() != b.String() {
			t.Fatalf("%s roundtrip: got %s want %s", SchemeName(scheme), got, b)
		}
	}
	// Adaptive path.
	var w Writer
	c.Encode(&w, b)
	got := c.Decode(NewReader(w.Bytes()))
	if got.String() != b.String() {
		t.Fatalf("adaptive roundtrip: got %s want %s", got, b)
	}
}

// handPicked is the edge-case half of the codec corpus: arrays for a codec
// of fanout 32.
func handPicked() []*Bits {
	patterns := []string{
		"1",
		"0",
		"10",
		"01",
		"11111111",
		"00000000",
		"10000000000000000000000000000001",
		"01101011",
		"11111111111111110000000000000000",
		"00000000000000001111111111111111",
		"10101010101010101010101010101010",
	}
	out := make([]*Bits, len(patterns))
	for k, p := range patterns {
		out[k] = NewBits(len(p))
		for i, ch := range p {
			out[k].Set(i, ch == '1')
		}
	}
	return out
}

// randomArrays is the other half: 200 arrays of random length up to m and
// random density.
func randomArrays(rng *rand.Rand, m int) []*Bits {
	out := make([]*Bits, 200)
	for k := range out {
		n := 1 + rng.Intn(m)
		out[k] = NewBits(n)
		density := rng.Float64()
		for i := 0; i < n; i++ {
			out[k].Set(i, rng.Float64() < density)
		}
	}
	return out
}

func TestCodecRoundtripHandPicked(t *testing.T) {
	c := NewCodec(32)
	for _, b := range handPicked() {
		roundtrip(t, c, b)
	}
}

func TestCodecRoundtripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{8, 32, 204} {
		c := NewCodec(m)
		for _, b := range randomArrays(rng, m) {
			roundtrip(t, c, b)
		}
	}
}

// TestCodecGoldenBytes pins the encoder's output: the digest, per scheme and
// for adaptive selection, of every encoding of the corpus above, taken from
// the encoder that materialized marked positions into slices. An encoder that
// walks them in place has to write the same bytes.
func TestCodecGoldenBytes(t *testing.T) {
	type item struct {
		c *Codec
		b *Bits
	}
	var corpus []item
	c32 := NewCodec(32)
	for _, b := range handPicked() {
		corpus = append(corpus, item{c32, b})
	}
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{8, 32, 204} {
		c := NewCodec(m)
		for _, b := range randomArrays(rng, m) {
			corpus = append(corpus, item{c, b})
		}
	}
	const adaptive = -1
	golden := []struct {
		scheme int
		n      int
		digest string
	}{
		{SchemeBL, 611, "339f2febe2d2877b"},
		{SchemePISparse, 450, "5bbb98d29146a965"},
		{SchemePIDense, 457, "51db12b0f919bf42"},
		{SchemeRLSparse, 611, "0ea2fa494937e3ad"},
		{SchemeRLDense, 611, "f949b1609cb01bab"},
		{SchemePCSparse, 501, "ec36f55eeedd53b8"},
		{SchemePCDense, 501, "415424147da99902"},
		{adaptive, 611, "13dd108aac844852"},
	}
	for _, g := range golden {
		h := sha256.New()
		n := 0
		for _, it := range corpus {
			var w Writer
			if g.scheme == adaptive {
				it.c.Encode(&w, it.b)
			} else {
				if _, ok := it.c.regionBits(it.b, g.scheme); !ok {
					continue
				}
				it.c.EncodeWith(&w, it.b, g.scheme)
			}
			fmt.Fprintf(h, "%d:%x;", w.Len(), w.Bytes())
			n++
		}
		name := "adaptive"
		if g.scheme != adaptive {
			name = SchemeName(g.scheme)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); n != g.n || got != g.digest {
			t.Errorf("%s: %d encodings digest %s, golden %d encodings digest %s", name, n, got, g.n, g.digest)
		}
	}
}

func TestCodecQuickProperty(t *testing.T) {
	c := NewCodec(64)
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		if n > 64 {
			n = 64
		}
		b := NewBits(n)
		for i := 0; i < n; i++ {
			b.Set(i, raw[i]&1 == 1)
		}
		var w Writer
		c.Encode(&w, b)
		return c.Decode(NewReader(w.Bytes())).String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecMultipleNodesInStream(t *testing.T) {
	c := NewCodec(16)
	arrays := []*Bits{NewBits(5), NewBits(16), NewBits(1)}
	arrays[0].Set(2, true)
	for i := 0; i < 16; i += 2 {
		arrays[1].Set(i, true)
	}
	arrays[2].Set(0, true)
	var w Writer
	for _, b := range arrays {
		c.Encode(&w, b)
	}
	r := NewReader(w.Bytes())
	for i, b := range arrays {
		got := c.Decode(r)
		if got.String() != b.String() {
			t.Fatalf("node %d: got %s want %s", i, got, b)
		}
	}
}

func TestAdaptiveBeatsBaselineOnSparse(t *testing.T) {
	// A very sparse wide array should compress below the BL size.
	c := NewCodec(204)
	b := NewBits(204)
	b.Set(3, true)
	var w Writer
	c.Encode(&w, b)
	adaptive := w.Len()
	c.EncodeBaseline(&w, b)
	baseline := w.Len() - adaptive
	if adaptive >= baseline {
		t.Fatalf("adaptive %d bits, baseline %d bits: no gain on sparse array", adaptive, baseline)
	}
}

func TestGammaRoundtrip(t *testing.T) {
	c := NewCodec(16)
	for i := 0; i <= 300; i++ {
		var w Writer
		c.writeGamma(&w, i)
		if got := w.Len(); got != gammaBits(i) {
			t.Fatalf("gammaBits(%d) = %d, wrote %d", i, gammaBits(i), got)
		}
		r := NewReader(w.Bytes())
		if got := c.readGamma(r); got != i {
			t.Fatalf("gamma roundtrip %d -> %d", i, got)
		}
	}
}

// TestGammaOneLoadMatchesFieldReads: readGamma reads what ReadUnary and
// ReadBits read and leaves the reader where they do — or aborts with the same
// ErrPageCorrupt — for a code at every bit offset of a 16-byte page, so in its
// last 8 bytes too, where the one load no longer fits; for prefixes of 27 bits
// (the longest one load takes), 28, 29 and 31, with payloads of all zeros and
// all ones; and for a prefix the page ends inside and one 32 ones long.
func TestGammaOneLoadMatchesFieldReads(t *testing.T) {
	c := NewCodec(16)
	fieldReads := func(r *Reader) int {
		l := r.ReadUnary(31)
		return int(uint64(1)<<uint(l)|r.ReadBits(l)) - 1
	}
	read := func(buf []byte, at int, gamma func(*Reader) int) (v, pos int, err error) {
		r := NewReader(buf)
		r.Seek(at)
		err = abortOf(func() { v = gamma(r) })
		return v, r.Pos(), err
	}
	same := func(name string, buf []byte, at int) {
		t.Helper()
		v, pos, err := read(buf, at, c.readGamma)
		wv, wpos, werr := read(buf, at, fieldReads)
		if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && (v != wv || pos != wpos) {
			t.Fatalf("%s at bit %d: read %d to bit %d (%v), field reads %d to bit %d (%v)", name, at, v, pos, err, wv, wpos, werr)
		}
	}
	rng := rand.New(rand.NewSource(17))
	const page = 16
	for _, v := range []int{0, 1, 6, 300, 1<<27 - 1, 1<<28 - 2, 1<<28 - 1, 1<<29 - 2, 1<<30 - 2, 1<<31 - 1} {
		for at := 0; at+gammaBits(v) <= 8*page; at++ {
			var w Writer
			w.WriteBits(rng.Uint64(), at%64)
			for w.Len() < at {
				w.WriteBits(rng.Uint64(), min(64, at-w.Len()))
			}
			c.writeGamma(&w, v)
			for w.Len() < 8*page {
				w.WriteBits(rng.Uint64(), min(64, 8*page-w.Len()))
			}
			same(fmt.Sprintf("value %d", v), w.Bytes(), at)
			if got, _, _ := read(w.Bytes(), at, c.readGamma); got != v {
				t.Fatalf("value %d at bit %d read as %d", v, at, got)
			}
		}
	}
	ones := make([]byte, page)
	for i := range ones {
		ones[i] = 0xff
	}
	for at := 0; at < 8*page; at++ {
		same("a page of ones", ones, at) // 32 ones, or the page's end, first
	}
}

func TestNextOneSetAllNot(t *testing.T) {
	var b Bits
	for _, n := range []int{0, 1, 63, 64, 65, 130, 200} {
		b.SetAll(n)
		if b.Len() != n || b.Ones() != n {
			t.Fatalf("SetAll(%d): Len=%d Ones=%d", n, b.Len(), b.Ones())
		}
		count := 0
		for i := b.NextOne(0); i >= 0; i = b.NextOne(i + 1) {
			if i != count {
				t.Fatalf("SetAll(%d): NextOne skipped from %d to %d", n, count, i)
			}
			count++
		}
		if count != n {
			t.Fatalf("SetAll(%d): NextOne enumerated %d bits", n, count)
		}
		if z := b.NextZero(0); z != -1 {
			t.Fatalf("SetAll(%d): NextZero found a clear bit at %d", n, z)
		}
		b.Not()
		if b.Any() || b.NextOne(0) != -1 {
			t.Fatalf("Not of all-ones (%d) left bits set", n)
		}
		zeros := 0
		for i := b.NextZero(0); i >= 0; i = b.NextZero(i + 1) {
			if i != zeros {
				t.Fatalf("all-zeros (%d): NextZero skipped from %d to %d", n, zeros, i)
			}
			zeros++
		}
		if zeros != n {
			t.Fatalf("all-zeros (%d): NextZero enumerated %d bits", n, zeros)
		}
	}
	// Shrinking reuses storage without leaking the old tail.
	b.SetAll(200)
	b.SetAll(3)
	if b.Ones() != 3 || b.NextOne(3) != -1 {
		t.Fatalf("SetAll(3) after SetAll(200): Ones=%d", b.Ones())
	}
	s := NewBits(150)
	for _, i := range []int{0, 63, 64, 149} {
		s.Set(i, true)
	}
	var got []int
	for i := s.NextOne(0); i >= 0; i = s.NextOne(i + 1) {
		got = append(got, i)
	}
	if len(got) != 4 || got[0] != 0 || got[1] != 63 || got[2] != 64 || got[3] != 149 {
		t.Fatalf("NextOne enumeration = %v", got)
	}
	s.Not()
	got = got[:0]
	for i := s.NextZero(0); i >= 0; i = s.NextZero(i + 1) {
		got = append(got, i)
	}
	if len(got) != 4 || got[0] != 0 || got[1] != 63 || got[2] != 64 || got[3] != 149 {
		t.Fatalf("NextZero enumeration of the complement = %v", got)
	}
}

func TestAndAcrossWidths(t *testing.T) {
	wide := NewBits(130)
	for _, i := range []int{1, 64, 70, 129} {
		wide.Set(i, true)
	}
	narrow := NewBits(66)
	narrow.Set(1, true)
	narrow.Set(64, true)
	narrow.Set(65, true)

	w := wide.Clone()
	w.And(narrow) // positions past narrow's end count as clear
	if w.Ones() != 2 || !w.Get(1) || !w.Get(64) || w.Len() != 130 {
		t.Fatalf("wide&narrow = %s (len %d)", w, w.Len())
	}
	n := narrow.Clone()
	n.And(wide) // a longer operand cannot set bits past the receiver's end
	if n.Ones() != 2 || !n.Get(1) || !n.Get(64) || n.Len() != 66 {
		t.Fatalf("narrow&wide = %s (len %d)", n, n.Len())
	}
	w.And(NewBits(0))
	if w.Any() {
		t.Fatal("And with an empty array left bits set")
	}
}

func TestArenaHandsOutDistinctZeroedArrays(t *testing.T) {
	var a Arena
	var all []*Bits
	for i := 0; i < 3*arenaVals; i++ {
		b := a.New(1 + i%200)
		if b.Len() != 1+i%200 || b.Any() {
			t.Fatalf("array %d: Len=%d Any=%v", i, b.Len(), b.Any())
		}
		b.Set(b.Len()-1, true)
		all = append(all, b)
	}
	for i, b := range all {
		if b.Ones() != 1 || !b.Get(b.Len()-1) {
			t.Fatalf("array %d was overwritten by a later one", i)
		}
	}
	if big := a.New(100 * 64 * arenaWords / 64); big.Len() != 100*arenaWords || big.Any() {
		t.Fatal("array larger than a slab")
	}
	var none *Arena
	if b := none.New(7); b.Len() != 7 {
		t.Fatal("nil arena")
	}
}

// TestArenaResetReusesItsSlabs: after a Reset the arena hands out zeroed
// arrays again, distinct until the next Reset, and once it has been Reset
// after its largest round it takes no new slab for a round no larger.
func TestArenaResetReusesItsSlabs(t *testing.T) {
	var a Arena
	round := func(n int) {
		var all []*Bits
		for i := 0; i < n; i++ {
			b := a.New(1 + i%200)
			if b.Len() != 1+i%200 || b.Any() {
				t.Fatalf("array %d of %d: Len=%d Any=%v", i, n, b.Len(), b.Any())
			}
			b.SetAll(b.Len())
			all = append(all, b)
		}
		for i, b := range all {
			if b.Ones() != b.Len() {
				t.Fatalf("array %d of %d was overwritten by a later one", i, n)
			}
		}
		a.Reset()
	}
	round(3 * arenaVals)
	round(arenaVals)
	round(3 * arenaVals)
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < 3*arenaVals; i++ {
			a.New(1 + i%200).SetAll(1 + i%200)
		}
		a.Reset()
	}); got != 0 {
		t.Fatalf("a round after the largest takes %v slabs", got)
	}
}

// abortOf runs fn and returns the error of the typed abort it raised.
func abortOf(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = errs.IsAbort(r); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func TestReaderFastAndSlowPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w Writer
	type field struct {
		v     uint64
		width int
	}
	var fields []field
	for i := 0; i < 400; i++ {
		width := 1 + rng.Intn(64)
		v := rng.Uint64()
		if width < 64 {
			v &= 1<<uint(width) - 1
		}
		fields = append(fields, field{v, width})
		w.WriteBits(v, width)
	}
	r := NewReader(w.Bytes())
	for i, f := range fields {
		if got := r.ReadBits(f.width); got != f.v {
			t.Fatalf("field %d (%d bits at the %d-byte buffer's bit %d): read %x, wrote %x", i, f.width, len(w.Bytes()), r.Pos()-f.width, got, f.v)
		}
	}
	if err := abortOf(func() { r.ReadBits(9) }); !errors.Is(err, errs.ErrPageCorrupt) {
		t.Fatalf("reading past the end: %v", err)
	}
}

func TestReadUnary(t *testing.T) {
	for _, ones := range []int{0, 1, 7, 8, 9, 31} {
		var w Writer
		w.WriteBits(0b101, 3) // misalign
		for i := 0; i < ones; i++ {
			w.WriteBits(1, 1)
		}
		w.WriteBits(0, 1)
		w.WriteBits(0x5a, 8)
		r := NewReader(w.Bytes())
		r.ReadBits(3)
		if got := r.ReadUnary(31); got != ones {
			t.Fatalf("run of %d read as %d", ones, got)
		}
		if got := r.ReadBits(8); got != 0x5a {
			t.Fatalf("after a run of %d the next field reads %x", ones, got)
		}
	}
	for name, buf := range map[string][]byte{"over the limit": {0xff, 0xff, 0xff, 0xff, 0xff, 0}, "off the end": {0xff}, "empty": {}} {
		if err := abortOf(func() { NewReader(buf).ReadUnary(31) }); !errors.Is(err, errs.ErrPageCorrupt) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestDecodeRejectsWhatNoEncoderWrites: each malformed node aborts with
// ErrPageCorrupt instead of indexing out of range or decoding garbage.
func TestDecodeRejectsWhatNoEncoderWrites(t *testing.T) {
	c := NewCodec(20) // nbits 5
	node := func(scheme, region int, fields ...[2]int) []byte {
		var w Writer
		w.WriteBits(uint64(scheme), 3)
		w.WriteBits(uint64(region-1), c.lenBits)
		for _, f := range fields {
			w.WriteBits(uint64(f[0]), f[1])
		}
		return w.Bytes()
	}
	for name, buf := range map[string][]byte{
		"unknown scheme":          node(0b001, 6, [2]int{3, 5}, [2]int{0, 1}),
		"length over the fanout":  node(SchemeBL, 5+32, [2]int{31, 5}, [2]int{0, 32}),
		"PI position past length": node(SchemePISparse, 10, [2]int{3, 5}, [2]int{9, 5}),
		"RL run past length":      node(SchemeRLSparse, 5+5, [2]int{3, 5}, [2]int{0b00110, 5}),
		"region shorter than BL":  node(SchemeBL, 6, [2]int{3, 5}, [2]int{0b1111, 4}),
		"region past the page":    node(SchemePISparse, 60, [2]int{3, 5}, [2]int{1, 5}),
		"truncated header":        {0x02},
	} {
		err := abortOf(func() { c.Decode(NewReader(buf)) })
		if !errors.Is(err, errs.ErrPageCorrupt) {
			t.Errorf("%s: got %v, want ErrPageCorrupt", name, err)
		}
	}
}

func TestDecodeInMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCodec(204)
	var arena Arena
	for trial := 0; trial < 300; trial++ {
		b := NewBits(1 + rng.Intn(204))
		density := rng.Float64()
		for i := 0; i < b.Len(); i++ {
			b.Set(i, rng.Float64() < density)
		}
		for _, scheme := range allSchemes {
			if _, ok := c.regionBits(b, scheme); !ok {
				continue
			}
			var w Writer
			c.EncodeWith(&w, b, scheme)
			if got := c.DecodeIn(NewReader(w.Bytes()), &arena); got.String() != b.String() {
				t.Fatalf("%s: arena decode of %s gives %s", SchemeName(scheme), b, got)
			}
			if got := c.Decode(NewReader(w.Bytes())); got.String() != b.String() {
				t.Fatalf("%s: decode of %s gives %s", SchemeName(scheme), b, got)
			}
		}
	}
}

// TestCopyMatchesFieldLoop: Copy appends what reading the source a bit at a
// time and writing each bit does, for every pair of source and destination
// offsets modulo 8 — the byte path where they agree, the word path where they
// do not — and every length from 0 to 300 bits, out of a source that ends
// where the copied bits do.
func TestCopyMatchesFieldLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			for n := 0; n <= 300; n++ {
				off := 8*rng.Intn(3) + src
				buf := make([]byte, (off+n+7)/8)
				rng.Read(buf)
				var got, want Writer
				head := uint64(rng.Intn(1 << dst))
				got.WriteBits(head, dst)
				want.WriteBits(head, dst)
				got.Copy(buf, off, n)
				r := Reader{buf: buf, pos: off}
				for i := 0; i < n; i++ {
					want.WriteBits(r.ReadBits(1), 1)
				}
				if got.Len() != want.Len() || string(got.Bytes()) != string(want.Bytes()) {
					t.Fatalf("source bit %d, destination bit %d, %d bits: Copy wrote %x (%d bits), the loop %x (%d bits)",
						off, dst, n, got.Bytes(), got.Len(), want.Bytes(), want.Len())
				}
			}
		}
	}
}
