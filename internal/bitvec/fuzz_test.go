package bitvec

import (
	"errors"
	"math/rand"
	"testing"

	"rankcube/internal/errs"
)

// corruptOr runs a decoder and returns the typed ErrPageCorrupt abort it
// ended with, if any; every other panic is the failure being hunted and
// propagates.
func corruptOr(decode func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok || !errors.Is(abort, errs.ErrPageCorrupt) {
				panic(r)
			}
			err = abort
		}
	}()
	decode()
	return nil
}

// FuzzCodecDecode feeds arbitrary bytes to the node-array decoder under
// arbitrary fanouts: a value or a typed ErrPageCorrupt, never a raw panic, the
// same verdict and the same array whether storage comes from an arena or not,
// an array no longer than the fanout, and one the encoder takes back. Skip, on
// the same bytes, returns or aborts with ErrPageCorrupt without leaving the
// page, and where the decoder takes the bytes it ends on the decoder's bit.
// The seed corpus is TestCodecGoldenBytes': the hand-picked arrays under every
// scheme that fits them, and random ones at three fanouts as the encoder
// chooses.
func FuzzCodecDecode(f *testing.F) {
	c32 := NewCodec(32)
	for _, b := range handPicked() {
		for _, scheme := range allSchemes {
			if _, ok := c32.regionBits(b, scheme); ok {
				var w Writer
				c32.EncodeWith(&w, b, scheme)
				f.Add(32, w.Bytes())
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{8, 32, 204} {
		c := NewCodec(m)
		for _, b := range randomArrays(rng, m)[:12] {
			var w Writer
			c.Encode(&w, b)
			f.Add(m, w.Bytes())
		}
	}
	f.Add(2, []byte{})
	f.Add(32, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, m int, data []byte) {
		c := NewCodec(2 + int(uint(m)%1023))
		var own, lent *Bits
		decoded, skipped := NewReader(data), NewReader(data)
		err := corruptOr(func() { own = c.Decode(decoded) })
		if lentErr := corruptOr(func() { lent = c.DecodeIn(NewReader(data), new(Arena)) }); (err == nil) != (lentErr == nil) {
			t.Fatalf("Decode: %v, DecodeIn an arena: %v", err, lentErr)
		}
		skipErr := corruptOr(func() { c.Skip(skipped) })
		if skipped.Remaining() < 0 {
			t.Fatalf("Skip ran %d bits past the page", -skipped.Remaining())
		}
		if err != nil {
			return
		}
		if skipErr != nil || skipped.Pos() != decoded.Pos() {
			t.Fatalf("Skip ends at bit %d (%v), Decode at %d", skipped.Pos(), skipErr, decoded.Pos())
		}
		if own.Len() < 1 || own.Len() > c.M() || !own.Equal(lent) {
			t.Fatalf("decoded %s and, in an arena, %s under fanout %d", own, lent, c.M())
		}
		var w Writer
		c.Encode(&w, own)
		if back := c.Decode(NewReader(w.Bytes())); !back.Equal(own) {
			t.Fatalf("%s re-encodes to %s", own, back)
		}
	})
}
