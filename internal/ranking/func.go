package ranking

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Func is the query-time ranking function contract. All engines in this
// repository assume score-ascending top-k ("users prefer minimal values",
// thesis §1.2.1) — higher-is-better queries are expressed by negating.
type Func interface {
	// Eval scores a full-width ranking vector (indexed by ranking-dimension
	// position).
	Eval(x []float64) float64
	// LowerBound returns a sound lower bound of the function over box — the
	// f(bid)/f(S) quantity driving every progressive search in the thesis.
	LowerBound(box Box) float64
	// Attrs lists the ranking-dimension positions the function references,
	// sorted ascending.
	Attrs() []int
	// String renders the function.
	String() string
}

// Convex is implemented by functions guaranteeing convexity over their
// domain, enabling the grid cube's neighborhood search (thesis Lemma 1).
type Convex interface {
	IsConvex() bool
}

// Minimizer is implemented by functions that can name a point attaining
// their lower bound within a box; the grid cube uses it to locate the first
// candidate block (§3.3.2 "Search").
type Minimizer interface {
	ArgMin(box Box) []float64
}

// Monotone is implemented by functions monotone in each referenced attribute
// over the whole domain; Directions reports +1 (non-decreasing) or −1
// (non-increasing) per referenced attribute, aligned with Attrs order.
// Index-merge neighborhood expansion (§5.2.2) requires it.
type Monotone interface {
	Directions() []int
}

// SemiMonotone is implemented by functions that decrease toward and increase
// away from a single extreme point o per dimension (thesis §5.2.2:
// f(x) ≤ f(x') whenever |xi−oi| ≤ |x'i−oi| for every i).
type SemiMonotone interface {
	Extreme() []float64
}

// IsConvexFunc reports whether f declares convexity.
func IsConvexFunc(f Func) bool {
	c, ok := f.(Convex)
	return ok && c.IsConvex()
}

// ---------------------------------------------------------------------------
// Linear functions: f = b + Σ w_i · N_{a_i}
// ---------------------------------------------------------------------------

// LinearFunc is a weighted linear combination of ranking attributes. Weights
// may be negative (thesis Def. 1 note: linear functions are convex with no
// sign restriction on weights).
type LinearFunc struct {
	attrs   []int
	weights []float64
	bias    float64
}

// Linear builds f = Σ weights[i]·N_{attrs[i]}. attrs must be distinct;
// entries are sorted (with weights permuted to match). Without one finite
// weight per attribute it builds a function of rank dimension −1, which every
// public entry point refuses as outside the schema.
func Linear(attrs []int, weights []float64) *LinearFunc {
	if len(attrs) != len(weights) || !finite(weights...) {
		return &LinearFunc{attrs: []int{-1}, weights: []float64{1}}
	}
	idx := make([]int, len(attrs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return attrs[idx[a]] < attrs[idx[b]] })
	f := &LinearFunc{
		attrs:   make([]int, len(attrs)),
		weights: make([]float64, len(weights)),
	}
	for i, j := range idx {
		f.attrs[i] = attrs[j]
		f.weights[i] = weights[j]
	}
	return f
}

// Sum builds the unweighted sum over the given attributes (e.g. N1+N2).
func Sum(attrs ...int) *LinearFunc {
	w := make([]float64, len(attrs))
	for i := range w {
		w[i] = 1
	}
	return Linear(attrs, w)
}

// Eval implements Func.
func (f *LinearFunc) Eval(x []float64) float64 { return f.eval(x, f.attrs) }

// eval scores the point whose i-th referenced attribute is x[at[i]]: Eval
// with at the attributes themselves, a Bound with their covered positions.
func (f *LinearFunc) eval(x []float64, at []int) float64 {
	s := f.bias
	for i, a := range at {
		s += f.weights[i] * x[a]
	}
	return s
}

// LowerBound implements Func with the exact box minimum.
func (f *LinearFunc) LowerBound(box Box) float64 { return f.bound(box.Lo, box.Hi, f.attrs) }

// bound is eval's twin over the rect lo..hi.
func (f *LinearFunc) bound(lo, hi []float64, at []int) float64 {
	s := f.bias
	for i, a := range at {
		w := f.weights[i]
		if w >= 0 {
			s += w * lo[a]
		} else {
			s += w * hi[a]
		}
	}
	return s
}

// Attrs implements Func.
func (f *LinearFunc) Attrs() []int { return f.attrs }

// IsConvex implements Convex.
func (f *LinearFunc) IsConvex() bool { return true }

// Directions implements Monotone.
func (f *LinearFunc) Directions() []int {
	d := make([]int, len(f.weights))
	for i, w := range f.weights {
		if w >= 0 {
			d[i] = 1
		} else {
			d[i] = -1
		}
	}
	return d
}

// ArgMin implements Minimizer.
func (f *LinearFunc) ArgMin(box Box) []float64 {
	p := box.Center()
	for i, a := range f.attrs {
		if f.weights[i] >= 0 {
			p[a] = box.Lo[a]
		} else {
			p[a] = box.Hi[a]
		}
	}
	return p
}

// Weights returns the weight vector aligned with Attrs.
func (f *LinearFunc) Weights() []float64 { return f.weights }

func (f *LinearFunc) String() string {
	e := Expr(Const(f.bias))
	terms := []Expr{}
	if f.bias != 0 {
		terms = append(terms, e)
	}
	for i, a := range f.attrs {
		terms = append(terms, Scale(f.weights[i], Var(a)))
	}
	return Add(terms...).String()
}

// ---------------------------------------------------------------------------
// Distance functions: Σ (N_a − t_a)^p for p ∈ {1, 2}
// ---------------------------------------------------------------------------

// DistFunc scores points by distance to a target (the "expected price 20k,
// expected mileage 10k" queries of thesis Example 1).
type DistFunc struct {
	attrs  []int
	target []float64
	l1     bool
}

// SqDist builds Σ (N_{attrs[i]} − target[i])². Like L1Dist, without one
// finite coordinate per attribute it builds a function of rank dimension −1,
// which every public entry point refuses as outside the schema.
func SqDist(attrs []int, target []float64) *DistFunc {
	return newDist(attrs, target, false)
}

// L1Dist builds Σ |N_{attrs[i]} − target[i]|.
func L1Dist(attrs []int, target []float64) *DistFunc {
	return newDist(attrs, target, true)
}

func newDist(attrs []int, target []float64, l1 bool) *DistFunc {
	if len(attrs) != len(target) || !finite(target...) {
		return &DistFunc{attrs: []int{-1}, target: []float64{0}, l1: l1}
	}
	idx := make([]int, len(attrs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return attrs[idx[a]] < attrs[idx[b]] })
	f := &DistFunc{
		attrs:  make([]int, len(attrs)),
		target: make([]float64, len(target)),
		l1:     l1,
	}
	for i, j := range idx {
		f.attrs[i] = attrs[j]
		f.target[i] = target[j]
	}
	return f
}

// Eval implements Func.
func (f *DistFunc) Eval(x []float64) float64 { return f.eval(x, f.attrs) }

// eval is LinearFunc.eval for a distance.
func (f *DistFunc) eval(x []float64, at []int) float64 {
	var s float64
	for i, a := range at {
		d := x[a] - f.target[i]
		if f.l1 {
			s += math.Abs(d)
		} else {
			s += d * d
		}
	}
	return s
}

// LowerBound implements Func with the exact box minimum (per-dimension clamp
// of the target into the box).
func (f *DistFunc) LowerBound(box Box) float64 { return f.bound(box.Lo, box.Hi, f.attrs) }

// bound is LinearFunc.bound for a distance.
func (f *DistFunc) bound(lo, hi []float64, at []int) float64 {
	var s float64
	for i, a := range at {
		t := f.target[i]
		var d float64
		if t < lo[a] {
			d = lo[a] - t
		} else if t > hi[a] {
			d = t - hi[a]
		}
		if f.l1 {
			s += d
		} else {
			s += d * d
		}
	}
	return s
}

// Attrs implements Func.
func (f *DistFunc) Attrs() []int { return f.attrs }

// IsConvex implements Convex.
func (f *DistFunc) IsConvex() bool { return true }

// Extreme implements SemiMonotone: the function is minimal at the target and
// grows with per-dimension distance from it.
func (f *DistFunc) Extreme() []float64 {
	e := make([]float64, maxAttr(f.attrs)+1)
	for i, a := range f.attrs {
		e[a] = f.target[i]
	}
	return e
}

// ArgMin implements Minimizer.
func (f *DistFunc) ArgMin(box Box) []float64 {
	p := box.Center()
	for i, a := range f.attrs {
		t := f.target[i]
		if t < box.Lo[a] {
			t = box.Lo[a]
		} else if t > box.Hi[a] {
			t = box.Hi[a]
		}
		p[a] = t
	}
	return p
}

func (f *DistFunc) String() string {
	terms := make([]Expr, len(f.attrs))
	for i, a := range f.attrs {
		d := Sub(Var(a), Const(f.target[i]))
		if f.l1 {
			terms[i] = Abs(d)
		} else {
			terms[i] = Sqr(d)
		}
	}
	return Add(terms...).String()
}

// finite reports whether no v is NaN or ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func maxAttr(attrs []int) int {
	m := 0
	for _, a := range attrs {
		if a > m {
			m = a
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// General expression functions with interval-arithmetic bounds
// ---------------------------------------------------------------------------

// ExprFunc wraps an arbitrary expression tree; lower bounds come from
// interval arithmetic (sound, possibly loose). It models the thesis' "general
// query" class, e.g. fg = (A − B²)² (§5.4.2). The tree is compiled once, and
// Eval and LowerBound run the program.
type ExprFunc struct {
	expr  Expr
	prog  program
	attrs []int
}

// General wraps expr as a ranking function.
func General(expr Expr) *ExprFunc {
	f := &ExprFunc{expr: expr, prog: compile(expr)}
	f.attrs = f.prog.attrs()
	return f
}

// Eval implements Func.
func (f *ExprFunc) Eval(x []float64) float64 { return f.prog.eval(x) }

// LowerBound implements Func.
func (f *ExprFunc) LowerBound(box Box) float64 { return f.prog.bound(box.Lo, box.Hi) }

// Attrs implements Func.
func (f *ExprFunc) Attrs() []int { return f.attrs }

func (f *ExprFunc) String() string { return fmt.Sprint(f.expr) }

// ---------------------------------------------------------------------------
// Constrained functions: f = inner / η(N_a), η = 1 inside [lo,hi] else 0
// ---------------------------------------------------------------------------

// ConstrainedFunc is the thesis' fc query class (§5.4.2): the inner score
// where attribute attr lies within [lo, hi], +Inf outside.
type ConstrainedFunc struct {
	inner  Func
	attr   int
	lo, hi float64
	attrs  []int
}

// Constrained restricts inner to boxes intersecting attr ∈ [lo, hi]. A bound
// may be ±Inf, an open band; a nil inner or a NaN bound builds a function of
// rank dimension −1, which every public entry point refuses as outside the
// schema.
func Constrained(inner Func, attr int, lo, hi float64) *ConstrainedFunc {
	if inner == nil {
		inner = General(nil)
	}
	attrs := append([]int(nil), inner.Attrs()...)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		attrs = append(attrs, -1)
	}
	if !slices.Contains(attrs, attr) {
		attrs = append(attrs, attr)
	}
	sort.Ints(attrs)
	return &ConstrainedFunc{inner: inner, attr: attr, lo: lo, hi: hi, attrs: attrs}
}

// Eval implements Func.
func (f *ConstrainedFunc) Eval(x []float64) float64 {
	if x[f.attr] < f.lo || x[f.attr] > f.hi {
		return math.Inf(1)
	}
	return f.inner.Eval(x)
}

// LowerBound implements Func: the box is clipped to the constraint band; a
// box entirely outside the band bounds to +Inf and is pruned.
func (f *ConstrainedFunc) LowerBound(box Box) float64 {
	if box.Hi[f.attr] < f.lo || box.Lo[f.attr] > f.hi {
		return math.Inf(1)
	}
	clipped := box.Clone()
	if clipped.Lo[f.attr] < f.lo {
		clipped.Lo[f.attr] = f.lo
	}
	if clipped.Hi[f.attr] > f.hi {
		clipped.Hi[f.attr] = f.hi
	}
	return f.inner.LowerBound(clipped)
}

// Attrs implements Func.
func (f *ConstrainedFunc) Attrs() []int { return f.attrs }

func (f *ConstrainedFunc) String() string {
	return "(" + f.inner.String() + ") / eta(N" + strconv.Itoa(f.attr) + ")"
}
