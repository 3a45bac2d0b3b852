package ranking

import (
	"slices"

	"rankcube/internal/poison"
)

// Bound is a function bound to the dimensions an index covers, so that it
// scores an entry where the index stores it: a rect over the covered
// dimensions in their order, a leaf's point as the same. It takes
// *LinearFunc, *DistFunc and *ExprFunc — by concrete type, so a wrapper that
// embeds one keeps its own methods — when the index covers every dimension
// the function references, and runs their own loops with each attribute read
// at its covered position: Rect and Point are bit for bit LowerBound and Eval
// over the entry widened to the full width. Any other binding is not Direct,
// and the caller widens the entry for the function. Binding a Bound again
// reuses its storage.
type Bound struct {
	lin  *LinearFunc
	dist *DistFunc
	// at is the covered position of each attribute lin or dist references.
	at []int
	// prog is a general function's program over the covered positions.
	prog   program
	direct bool
}

// Bind binds b to f over an index covering dims, ascending, and reports
// whether b is Direct; a nil f unbinds it. In a poison build the positions
// and the program are first filled with a position out of every range.
func (b *Bound) Bind(f Func, dims []int) bool {
	poison.Fill(b.at, poison.TID)
	poison.Fill(b.prog.ops, op{code: 'v', v: poison.TID})
	*b = Bound{at: b.at[:0], prog: program{ops: b.prog.ops[:0]}}
	switch f := f.(type) {
	case *LinearFunc:
		b.lin, b.at = f, covered(b.at, f.attrs, dims)
	case *DistFunc:
		b.dist, b.at = f, covered(b.at, f.attrs, dims)
	case *ExprFunc:
		n := len(f.prog.ops)
		b.prog = program{ops: slices.Grow(b.prog.ops, n)[:n], depth: f.prog.depth}
		for i, o := range f.prog.ops {
			if o.code == 'v' {
				o.v = int32(slices.Index(dims, int(o.v)))
			}
			b.prog.ops[i] = o
		}
	default:
		return false
	}
	b.direct = !slices.Contains(b.at, -1) && !slices.ContainsFunc(b.prog.ops, func(o op) bool { return o.code == 'v' && o.v < 0 })
	return b.direct
}

// covered sets at to the position in dims of each of attrs, −1 for one dims
// does not hold.
func covered(at, attrs, dims []int) []int {
	at = slices.Grow(at, len(attrs))[:len(attrs)]
	for i, a := range attrs {
		at[i] = slices.Index(dims, a)
	}
	return at
}

// Direct reports whether b scores stored entries.
func (b *Bound) Direct() bool { return b.direct }

// Rect is the function's lower bound over the entry lo..hi, for a Direct b.
func (b *Bound) Rect(lo, hi []float64) float64 {
	switch {
	case b.lin != nil:
		return b.lin.bound(lo, hi, b.at)
	case b.dist != nil:
		return b.dist.bound(lo, hi, b.at)
	}
	return b.prog.bound(lo, hi)
}

// Point is the function at the entry pt, for a Direct b.
func (b *Bound) Point(pt []float64) float64 {
	switch {
	case b.lin != nil:
		return b.lin.eval(pt, b.at)
	case b.dist != nil:
		return b.dist.eval(pt, b.at)
	}
	return b.prog.eval(pt)
}
