// Package ranking implements the ranking-function model of the thesis:
// user-supplied ad hoc scoring functions over the ranking dimensions, with
// the single structural requirement the thesis imposes (§1.2.1, §4.1.3):
// given a function f and a domain region Ω, a lower bound of f over Ω can be
// derived.
//
// Lower bounds are provided in two ways. The common query functions of the
// evaluation chapters (linear combinations, squared/absolute distance,
// boolean-constrained variants) have closed-form exact bounds. Arbitrary
// functions are expressed as expression trees and bounded with interval
// arithmetic, which is conservative but always sound.
//
// Several search strategies exploit extra structure when a function declares
// it: convexity (grid-cube neighborhood search, thesis Lemma 1), monotone and
// semi-monotone shape (index-merge neighborhood expansion, §5.2.2).
package ranking

import "slices"

// Interval is a closed real interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return Interval{v, v} }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// Add returns iv + o under interval arithmetic.
func (iv Interval) Add(o Interval) Interval { return Interval{iv.Lo + o.Lo, iv.Hi + o.Hi} }

// Sub returns iv − o under interval arithmetic.
func (iv Interval) Sub(o Interval) Interval { return Interval{iv.Lo - o.Hi, iv.Hi - o.Lo} }

// Neg returns −iv.
func (iv Interval) Neg() Interval { return Interval{-iv.Hi, -iv.Lo} }

// Mul returns iv × o under interval arithmetic. Mul, Sqr and Abs take the
// builtin min and max, which inline; math.Min and math.Max are calls.
func (iv Interval) Mul(o Interval) Interval {
	p1, p2 := iv.Lo*o.Lo, iv.Lo*o.Hi
	p3, p4 := iv.Hi*o.Lo, iv.Hi*o.Hi
	return Interval{min(p1, p2, p3, p4), max(p1, p2, p3, p4)}
}

// Sqr returns iv² (tighter than iv.Mul(iv) when the interval straddles 0).
func (iv Interval) Sqr() Interval {
	lo2, hi2 := iv.Lo*iv.Lo, iv.Hi*iv.Hi
	hi := max(lo2, hi2)
	if iv.Contains(0) {
		return Interval{0, hi}
	}
	return Interval{min(lo2, hi2), hi}
}

// Abs returns |iv|.
func (iv Interval) Abs() Interval {
	if iv.Contains(0) {
		return Interval{0, max(-iv.Lo, iv.Hi)}
	}
	if iv.Hi < 0 {
		return Interval{-iv.Hi, -iv.Lo}
	}
	return iv
}

// Box is an axis-aligned hyperrectangle over the ranking dimensions of a
// relation. Lo and Hi are indexed by ranking-dimension position (0..R-1);
// they always have equal length.
type Box struct {
	Lo, Hi []float64
}

// NewBox returns a box spanning [lo[i], hi[i]] on each dimension. The slices
// are retained, not copied.
func NewBox(lo, hi []float64) Box { return Box{Lo: lo, Hi: hi} }

// UnitBox returns the box [0,1]^r.
func UnitBox(r int) Box {
	lo := make([]float64, r)
	hi := make([]float64, r)
	for i := range hi {
		hi[i] = 1
	}
	return Box{lo, hi}
}

// Dims reports the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// Contains reports whether point x (full-width vector) lies inside the box.
func (b Box) Contains(x []float64) bool {
	for i := range b.Lo {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	lo := make([]float64, len(b.Lo))
	hi := make([]float64, len(b.Hi))
	copy(lo, b.Lo)
	copy(hi, b.Hi)
	return Box{lo, hi}
}

// AppendCenter appends the box midpoint to dst.
func (b Box) AppendCenter(dst []float64) []float64 {
	dst = slices.Grow(dst, len(b.Lo))
	for i := range b.Lo {
		dst = append(dst, (b.Lo[i]+b.Hi[i])/2)
	}
	return dst
}
