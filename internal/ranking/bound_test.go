package ranking

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boundWidth is the full ranking width the bound tests widen entries to.
const boundWidth = 5

// embedded wraps a function the way a timing wrapper does: by embedding it.
type embedded struct{ *LinearFunc }

// kernel reports whether a Bound scores f over dims with a loop of its own:
// f is of one of the three families, or constrains one of them, and
// references covered dimensions only.
func kernel(f Func, dims []int) bool {
	inner := f
	if c, ok := f.(*ConstrainedFunc); ok {
		inner = c.inner
	}
	switch inner.(type) {
	case *LinearFunc, *DistFunc, *ExprFunc:
		return !slices.ContainsFunc(f.Attrs(), func(a int) bool { return !slices.Contains(dims, a) })
	}
	return false
}

// checkBound binds f to an index covering dims. The bound must score rects
// and points drawn from rng — and one coordinate set to v, to reach ±0, ±Inf,
// NaN and extreme magnitudes — bit for bit as f.LowerBound and f.Eval score
// the same entry widened to the full width, the uncovered dimensions holding
// the index's domain and its center. Binding again allocates nothing, and
// scoring with a loop of the bound's own allocates nothing at any depth.
func checkBound(t *testing.T, rng *rand.Rand, f Func, dims []int, v float64) {
	t.Helper()
	var b Bound
	d := len(dims)
	lo, hi, pt := make([]float64, d), make([]float64, d), make([]float64, d)
	domain := NewBox(make([]float64, boundWidth), make([]float64, boundWidth))
	box := NewBox(make([]float64, boundWidth), make([]float64, boundWidth))
	full := make([]float64, boundWidth)
	for trial := 0; trial < 20; trial++ {
		for i := 0; i < boundWidth; i++ {
			a, c := rng.Float64()*4-2, rng.Float64()*4-2
			domain.Lo[i], domain.Hi[i] = min(a, c), max(a, c)
		}
		b.Bind(f, dims, domain)
		if f == nil {
			continue
		}
		for j := range dims {
			a, c := rng.Float64()*4-2, rng.Float64()*4-2
			switch trial % 4 {
			case 0: // straddle 0
				a, c = -math.Abs(a), math.Abs(c)
			case 1: // a point, −0 on the first covered dimension
				if c = a; j == 0 {
					a, c = negZero, negZero
				}
			}
			lo[j], hi[j] = min(a, c), max(a, c)
			pt[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		if trial == 3 && d > 0 {
			j := rng.Intn(d)
			lo[j], pt[j] = v, v
			hi[j] = max(v, hi[j])
		}
		copy(box.Lo, domain.Lo)
		copy(box.Hi, domain.Hi)
		for i := range full {
			full[i] = (domain.Lo[i] + domain.Hi[i]) / 2
		}
		for j, dim := range dims {
			box.Lo[dim], box.Hi[dim], full[dim] = lo[j], hi[j], pt[j]
		}
		if got, want := b.Rect(lo, hi), f.LowerBound(box); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v over %v: bound %v, LowerBound %v of %v", f, dims, got, want, box)
		}
		if got, want := b.Point(pt), f.Eval(full); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v over %v: bound %v, Eval %v at %v", f, dims, got, want, full)
		}
	}
	if n := testing.AllocsPerRun(10, func() { b.Bind(f, dims, domain) }); n != 0 {
		t.Fatalf("%v: binding again allocates %v times", f, n)
	}
	if !kernel(f, dims) {
		return
	}
	if n := testing.AllocsPerRun(10, func() { b.Rect(lo, hi) }); n != 0 {
		t.Fatalf("%v: Rect allocates %v times", f, n)
	}
	if n := testing.AllocsPerRun(10, func() { b.Point(pt) }); n != 0 {
		t.Fatalf("%v: Point allocates %v times", f, n)
	}
}

// coveredBy returns f's attributes with extra of the other dimensions, sorted:
// dimensions an index covering f might hold.
func coveredBy(rng *rand.Rand, f Func, extra int) []int {
	dims := slices.Clone(f.Attrs())
	for _, d := range rng.Perm(boundWidth) {
		if extra > 0 && !slices.Contains(dims, d) {
			dims, extra = append(dims, d), extra-1
		}
	}
	slices.Sort(dims)
	return dims
}

// TestBoundMatchesFuncBitForBit: a function bound to an index's covered
// dimensions scores stored rects and points bit for bit as LowerBound and Eval
// score them widened: linear functions with negative weights, SqDist and
// L1Dist, general trees with Abs, Neg and Mul nodes and one deeper than the
// fixed stack of Eval and LowerBound, and ConstrainedFuncs of each family —
// bands closed and open, on a dimension the inner function references and on
// one it does not — over indexes covering exactly the function's dimensions
// or more, all without allocating. So do the functions the bound widens the
// entry for: one referencing a dimension the index does not cover, a
// ConstrainedFunc whose band or inner function the index does not cover, one
// of a wrapper, and a wrapper; a constrained function over every dimension is
// tried with them at ±0, +Inf and NaN.
func TestBoundMatchesFuncBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	all := []int{0, 1, 2, 3, 4}
	direct := []Func{
		Linear([]int{0, 2}, []float64{1, 2.5}),
		Linear([]int{4, 1, 3}, []float64{-1.5, 0.25, -3}),
		Linear([]int{2}, []float64{0}),
		SqDist([]int{0, 4}, []float64{0.3, -0.7}),
		L1Dist([]int{3, 1}, []float64{0, 1.25}),
		General(Abs(Var(3))),
		General(Neg(Mul(Var(1), Sub(Var(4), Const(0.5))))),
		General(Sqr(Sub(Scale(2, Var(2)), Add(Var(3), Abs(Var(4)))))),
		General(deepExpr(2 * stackCap)),
		Constrained(Linear([]int{0, 2}, []float64{1, -2.5}), 2, -0.5, 0.5),
		Constrained(SqDist([]int{1, 3}, []float64{0.3, -0.7}), 4, -1, math.Inf(1)),
		Constrained(L1Dist([]int{3}, []float64{1.25}), 3, math.Inf(-1), 0),
		Constrained(General(deepExpr(2*stackCap)), 1, negZero, 0),
	}
	for i := 0; i < 200; i++ {
		e := General(randExpr(rng, 6, boundWidth))
		direct = append(direct, e, Constrained(e, rng.Intn(boundWidth), rng.Float64()*2-2, rng.Float64()*2))
	}
	for _, f := range direct {
		checkBound(t, rng, f, all, negZero)
		checkBound(t, rng, f, coveredBy(rng, f, 0), math.Inf(-1))
		checkBound(t, rng, f, coveredBy(rng, f, 1), 1e300)
	}
	for _, tc := range []struct {
		name string
		f    Func
		dims []int
	}{
		{"a linear dimension uncovered", Linear([]int{0, 3}, []float64{1, 1}), []int{0, 1, 2}},
		{"a distance dimension uncovered", SqDist([]int{1, 4}, []float64{0, 0}), []int{1, 2, 3}},
		{"a general dimension uncovered", General(Add(Var(0), Abs(Var(2)))), []int{0, 1}},
		{"a constrained function", Constrained(Sum(0, 1), 2, 0, 1), all},
		{"a constrained band uncovered", Constrained(Sum(0, 1), 2, 0, 1), []int{0, 1}},
		{"a constrained function's dimension uncovered", Constrained(Sum(0, 3), 1, 0, 1), []int{0, 1}},
		{"a constrained wrapper", Constrained(embedded{Sum(0, 1)}, 2, 0, 1), all},
		{"a wrapper", embedded{Sum(0, 1)}, all},
		{"no function", nil, all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range []float64{0, negZero, math.Inf(1), math.NaN()} {
				checkBound(t, rng, tc.f, tc.dims, v)
			}
		})
	}
}

// FuzzBoundKernel draws a function of each family, constrained functions of
// two, and an index covering it from the seed — and a wrapper and an index
// short of one attribute, which the bound widens the entry for — and holds the
// bound to LowerBound and Eval, bit for bit, on entries with one coordinate
// set to v.
func FuzzBoundKernel(f *testing.F) {
	for i, v := range []float64{0, negZero, 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		f.Add(int64(i), v)
	}
	f.Fuzz(func(t *testing.T, seed int64, v float64) {
		rng := rand.New(rand.NewSource(seed))
		attrs := rng.Perm(boundWidth)[:1+rng.Intn(boundWidth)]
		coef := make([]float64, len(attrs))
		for i := range coef {
			coef[i] = rng.Float64()*8 - 4
		}
		lin, gen := Linear(attrs, coef), General(randExpr(rng, 1+rng.Intn(8), boundWidth))
		for _, fn := range []Func{
			lin,
			SqDist(attrs, coef),
			L1Dist(attrs, coef),
			gen,
			Constrained(lin, rng.Intn(boundWidth), coef[0]-1, coef[0]+1),
			Constrained(gen, rng.Intn(boundWidth), math.Inf(-1), coef[0]),
			embedded{lin},
		} {
			dims := coveredBy(rng, fn, rng.Intn(boundWidth))
			checkBound(t, rng, fn, dims, v)
			if len(dims) > 1 {
				i := rng.Intn(len(dims))
				checkBound(t, rng, fn, slices.Delete(dims, i, i+1), v)
			}
		}
	})
}
