package ranking

import (
	"math"
	"slices"

	"rankcube/internal/poison"
)

// Bound is a function bound to the dimensions an index covers, so that it
// scores an entry where the index stores it: a rect over the covered
// dimensions in their order, a leaf's point as the same. *LinearFunc,
// *DistFunc and *ExprFunc — by concrete type, so a wrapper that embeds one
// keeps its own methods — that reference covered dimensions only run their own
// loops with each attribute read at its covered position, and so does a
// *ConstrainedFunc of one of them whose band dimension is covered: it tests
// the band and clips a rect to it in storage of its own. Any other function
// is put the entry widened to the full width (Widen): the domain in the
// uncovered dimensions of a rect, the domain's center in those of a point.
// Either way Rect and Point are bit for bit LowerBound and Eval over the entry
// widened so. Binding a Bound again reuses its storage, and scoring allocates
// nothing but what a function put a widened entry allocates itself.
type Bound struct {
	lin  *LinearFunc
	dist *DistFunc
	// con, when set, is the constrained function whose inner function the
	// loop scores, band the covered position of its band dimension, and
	// clo and chi the rect clipped to the band.
	con      *ConstrainedFunc
	band     int
	clo, chi []float64
	// at is the covered position of each attribute the function references.
	at []int
	// prog is a general function's program over the covered positions, and
	// vals and ivals its stacks for Point and Rect.
	prog  program
	vals  []float64
	ivals []Interval
	// wide, when set, is scored instead on the entry widened from dims into
	// box or pt, whose other dimensions Bind sets to the domain and its center.
	wide Func
	dims []int
	box  Box
	pt   []float64
}

// Bind binds b to f over an index covering dims, ascending, whose full-width
// domain is domain; a nil f unbinds it. In a poison build the positions, the
// program, its stacks and the widening storage are first filled with values
// out of every range.
func (b *Bound) Bind(f Func, dims []int, domain Box) {
	poison.Fill(b.at, poison.TID)
	poison.Fill(b.prog.ops, op{code: 'v', v: poison.TID})
	for _, s := range [][]float64{b.vals, b.box.Lo, b.box.Hi, b.pt, b.clo, b.chi} {
		poison.Fill(s, poison.Score)
	}
	poison.Fill(b.ivals, Interval{poison.Score, poison.Score})
	*b = Bound{at: b.at[:0], prog: program{ops: b.prog.ops[:0]}, vals: b.vals, ivals: b.ivals, box: b.box, pt: b.pt, clo: b.clo, chi: b.chi}
	inner := f
	if c, ok := f.(*ConstrainedFunc); ok && slices.Contains(dims, c.attr) {
		b.con, b.band, inner = c, slices.Index(dims, c.attr), c.inner
		b.clo, b.chi = sized(b.clo, len(dims)), sized(b.chi, len(dims))
	}
	switch g := inner.(type) {
	case *LinearFunc:
		b.lin, b.at = g, covered(b.at, g.attrs, dims)
	case *DistFunc:
		b.dist, b.at = g, covered(b.at, g.attrs, dims)
	case *ExprFunc:
		b.at, b.prog = covered(b.at, g.attrs, dims), program{ops: sized(b.prog.ops, len(g.prog.ops)), depth: g.prog.depth}
		for i, o := range g.prog.ops {
			if o.code == 'v' {
				o.v = int32(slices.Index(dims, int(o.v)))
			}
			b.prog.ops[i] = o
		}
		b.vals, b.ivals = sized(b.vals, g.prog.depth), sized(b.ivals, g.prog.depth)
	default:
		if f == nil {
			return
		}
		b.wide = f
	}
	if b.wide != nil || slices.Contains(b.at, -1) {
		b.wide, b.con, b.dims = f, nil, dims
		b.box = NewBox(append(b.box.Lo[:0], domain.Lo...), append(b.box.Hi[:0], domain.Hi...))
		b.pt = domain.AppendCenter(b.pt[:0])
	}
}

// covered sets at to the position in dims of each of attrs, −1 for one dims
// does not hold.
func covered(at, attrs, dims []int) []int {
	at = sized(at, len(attrs))
	for i, a := range attrs {
		at[i] = slices.Index(dims, a)
	}
	return at
}

// sized returns s with length n, reallocated only if it has to grow.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Rect is the function's lower bound over the entry lo..hi.
func (b *Bound) Rect(lo, hi []float64) float64 {
	if c := b.con; c != nil {
		a := b.band
		if hi[a] < c.lo || lo[a] > c.hi {
			return math.Inf(1)
		}
		copy(b.clo, lo)
		copy(b.chi, hi)
		if b.clo[a] < c.lo {
			b.clo[a] = c.lo
		}
		if b.chi[a] > c.hi {
			b.chi[a] = c.hi
		}
		lo, hi = b.clo, b.chi
	}
	switch {
	case b.wide != nil:
		Widen(b.box.Lo, b.dims, lo)
		Widen(b.box.Hi, b.dims, hi)
		return b.wide.LowerBound(b.box)
	case b.lin != nil:
		return b.lin.bound(lo, hi, b.at)
	case b.dist != nil:
		return b.dist.bound(lo, hi, b.at)
	}
	return b.prog.bound(lo, hi, b.ivals)
}

// Point is the function at the entry pt.
func (b *Bound) Point(pt []float64) float64 {
	if c := b.con; c != nil && (pt[b.band] < c.lo || pt[b.band] > c.hi) {
		return math.Inf(1)
	}
	switch {
	case b.wide != nil:
		return b.wide.Eval(Widen(b.pt, b.dims, pt))
	case b.lin != nil:
		return b.lin.eval(pt, b.at)
	case b.dist != nil:
		return b.dist.eval(pt, b.at)
	}
	return b.prog.eval(pt, b.vals)
}

// Widen writes v, the coordinates of an entry an index stores over the
// dimensions dims, into those dimensions of dst and returns dst. With dst
// holding the index's domain's Lo or Hi, or the domain's center, that is the
// full-width form of a rect's lo or hi, or of a point.
func Widen(dst []float64, dims []int, v []float64) []float64 {
	for j, d := range dims {
		dst[d] = v[j]
	}
	return dst
}
