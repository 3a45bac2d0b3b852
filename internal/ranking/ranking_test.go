package ranking

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntervalArithmetic(t *testing.T) {
	a := Interval{-1, 2}
	b := Interval{3, 5}
	if got := a.Add(b); got != (Interval{2, 7}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Interval{-6, -1}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b); got != (Interval{-5, 10}) {
		t.Fatalf("Mul = %v", got)
	}
	if got := a.Sqr(); got != (Interval{0, 4}) {
		t.Fatalf("Sqr = %v", got)
	}
	if got := a.Abs(); got != (Interval{0, 2}) {
		t.Fatalf("Abs = %v", got)
	}
	if got := (Interval{-3, -1}).Sqr(); got != (Interval{1, 9}) {
		t.Fatalf("negative Sqr = %v", got)
	}
	if got := (Interval{-3, -1}).Abs(); got != (Interval{1, 3}) {
		t.Fatalf("negative Abs = %v", got)
	}
}

// mathMul, mathSqr and mathAbs are Interval's Mul, Sqr and Abs written with
// math.Min and math.Max.
func mathMul(iv, o Interval) Interval {
	p1, p2 := iv.Lo*o.Lo, iv.Lo*o.Hi
	p3, p4 := iv.Hi*o.Lo, iv.Hi*o.Hi
	return Interval{math.Min(math.Min(p1, p2), math.Min(p3, p4)), math.Max(math.Max(p1, p2), math.Max(p3, p4))}
}

func mathSqr(iv Interval) Interval {
	lo2, hi2 := iv.Lo*iv.Lo, iv.Hi*iv.Hi
	hi := math.Max(lo2, hi2)
	if iv.Contains(0) {
		return Interval{0, hi}
	}
	return Interval{math.Min(lo2, hi2), hi}
}

func mathAbs(iv Interval) Interval {
	if iv.Contains(0) {
		return Interval{0, math.Max(-iv.Lo, iv.Hi)}
	}
	if iv.Hi < 0 {
		return Interval{-iv.Hi, -iv.Lo}
	}
	return iv
}

// TestIntervalMinMaxBuiltins: Mul, Sqr and Abs, which take the builtin min
// and max, give the bits math.Min and math.Max give on every pair of end
// points drawn from ±0, ±Inf and random finite values, at magnitudes whose
// products underflow to ±0 and overflow to ±Inf. The two part ways only when
// a NaN reaches them — a NaN end point, or 0 × ±Inf: the builtins answer NaN
// (the Go spec), math.Min(−Inf, NaN) is −Inf and math.Max(+Inf, NaN) is +Inf,
// and the NaNs' bits differ. The ranking domain is finite reals, so no NaN
// does; for those the test pins only that the builtins' bound is NaN.
func TestIntervalMinMaxBuiltins(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	vals := []float64{0, negZero, inf, -inf, math.NaN(), 1, -1}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		vals = append(vals, (rng.Float64()*2-1)*math.Pow(10, float64(rng.Intn(640)-320)))
	}
	same := func(a, b Interval) bool {
		return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
	}
	isNaN := func(iv Interval) bool { return math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) }
	for _, a := range vals {
		for _, b := range vals {
			iv := Interval{a, b}
			if got, want := iv.Sqr(), mathSqr(iv); !same(got, want) && !(math.IsNaN(a) || math.IsNaN(b)) {
				t.Fatalf("%v.Sqr() = %v, with math.Min/Max %v", iv, got, want)
			}
			if got, want := iv.Abs(), mathAbs(iv); !same(got, want) && !(math.IsNaN(a) || math.IsNaN(b)) {
				t.Fatalf("%v.Abs() = %v, with math.Min/Max %v", iv, got, want)
			}
			for _, c := range vals {
				for _, d := range vals {
					o := Interval{c, d}
					got, want := iv.Mul(o), mathMul(iv, o)
					products := []float64{a * c, a * d, b * c, b * d}
					nan := slices.ContainsFunc(products, math.IsNaN)
					if nan && !isNaN(got) || !nan && !same(got, want) {
						t.Fatalf("%v.Mul(%v) = %v, with math.Min/Max %v", iv, o, got, want)
					}
				}
			}
		}
	}
}

// intersect returns the intersection of two intervals, empty when Lo > Hi.
func intersect(a, b Interval) Interval {
	return Interval{math.Max(a.Lo, b.Lo), math.Min(a.Hi, b.Hi)}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{0, 5}
	if got := intersect(a, Interval{3, 8}); got != (Interval{3, 5}) {
		t.Fatalf("Intersect = %v", got)
	}
	if d := intersect(a, Interval{6, 7}); d.Lo <= d.Hi {
		t.Fatal("disjoint Intersect not empty")
	}
}

// randBoxAndPoint draws a random box in [-2, 2]^r and a random point inside.
func randBoxAndPoint(rng *rand.Rand, r int) (Box, []float64) {
	lo := make([]float64, r)
	hi := make([]float64, r)
	pt := make([]float64, r)
	for i := 0; i < r; i++ {
		a := rng.Float64()*4 - 2
		b := rng.Float64()*4 - 2
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
		pt[i] = a + rng.Float64()*(b-a)
	}
	return NewBox(lo, hi), pt
}

// checkSound verifies f.LowerBound(box) ≤ f.Eval(pt) for points inside box.
func checkSound(t *testing.T, f Func, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	r := maxAttr(f.Attrs()) + 1
	if r < 3 {
		r = 3
	}
	for i := 0; i < trials; i++ {
		box, pt := randBoxAndPoint(rng, r)
		lb := f.LowerBound(box)
		v := f.Eval(pt)
		if lb > v+1e-9 {
			t.Fatalf("%s: LowerBound(%v..%v) = %v > Eval(%v) = %v",
				f, box.Lo, box.Hi, lb, pt, v)
		}
	}
}

func TestLinearBoundSound(t *testing.T) {
	checkSound(t, Linear([]int{0, 1}, []float64{1, 2}), 500)
	checkSound(t, Linear([]int{0, 2}, []float64{-1, 3}), 500)
}

func TestLinearBoundExact(t *testing.T) {
	f := Linear([]int{0, 1}, []float64{2, -3})
	box := NewBox([]float64{0, 0, 0}, []float64{1, 1, 1})
	// min = 2·0 + (−3)·1 = −3 at (0, 1).
	if got := f.LowerBound(box); got != -3 {
		t.Fatalf("LowerBound = %v, want -3", got)
	}
	am := f.ArgMin(box)
	if f.Eval(am) != -3 {
		t.Fatalf("Eval(ArgMin) = %v, want -3", f.Eval(am))
	}
}

// skewness reports max|w|/min|w| of f, the query-skewness measure u of
// thesis Table 3.9.
func skewness(f *LinearFunc) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, w := range f.Weights() {
		lo, hi = math.Min(lo, math.Abs(w)), math.Max(hi, math.Abs(w))
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

func TestLinearSkewness(t *testing.T) {
	f := Linear([]int{0, 1}, []float64{1, 5})
	if got := skewness(f); got != 5 {
		t.Fatalf("Skewness = %v, want 5", got)
	}
}

func TestSqDistBoundExact(t *testing.T) {
	f := SqDist([]int{0, 1}, []float64{0.5, 0.5})
	box := NewBox([]float64{0.6, 0.7, 0}, []float64{0.9, 0.8, 1})
	want := 0.1*0.1 + 0.2*0.2
	if got := f.LowerBound(box); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LowerBound = %v, want %v", got, want)
	}
	am := f.ArgMin(box)
	if math.Abs(f.Eval(am)-want) > 1e-12 {
		t.Fatalf("Eval(ArgMin) = %v, want %v", f.Eval(am), want)
	}
	// Target inside the box bounds to zero.
	inside := NewBox([]float64{0, 0, 0}, []float64{1, 1, 1})
	if got := f.LowerBound(inside); got != 0 {
		t.Fatalf("LowerBound(inside) = %v, want 0", got)
	}
}

func TestDistSound(t *testing.T) {
	checkSound(t, SqDist([]int{0, 1, 2}, []float64{0.1, -0.5, 1}), 500)
	checkSound(t, L1Dist([]int{0, 2}, []float64{0.3, 0.7}), 500)
}

func TestGeneralExprSound(t *testing.T) {
	// fg = (A − B²)² over dims 0, 1 (thesis §5.4.2).
	fg := General(Sqr(Sub(Var(0), Sqr(Var(1)))))
	checkSound(t, fg, 1000)
	// (2X − Y − Z)² (thesis §4.4.2 general query).
	f2 := General(Sqr(Sub(Scale(2, Var(0)), Add(Var(1), Var(2)))))
	checkSound(t, f2, 1000)
}

func TestGeneralAttrs(t *testing.T) {
	f := General(Sqr(Sub(Var(2), Sqr(Var(0)))))
	got := f.Attrs()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Attrs = %v, want [0 2]", got)
	}
}

func TestExprEval(t *testing.T) {
	// (2·x0 − x1 − x2)² at (1, 0.5, 0.5) = 1.
	e := General(Sqr(Sub(Scale(2, Var(0)), Add(Var(1), Var(2)))))
	if got := e.Eval([]float64{1, 0.5, 0.5}); got != 1 {
		t.Fatalf("Eval = %v, want 1", got)
	}
	if got := General(Abs(Const(-3))).Eval(nil); got != 3 {
		t.Fatalf("Abs = %v", got)
	}
	if got := General(Neg(Const(2))).Eval(nil); got != -2 {
		t.Fatalf("Neg = %v", got)
	}
}

func TestConstrainedBound(t *testing.T) {
	inner := Sum(0, 1)
	f := Constrained(inner, 1, 0.4, 0.6)
	// Point outside the band scores +Inf.
	if !math.IsInf(f.Eval([]float64{0.1, 0.9, 0}), 1) {
		t.Fatal("Eval outside band not +Inf")
	}
	if f.Eval([]float64{0.1, 0.5, 0}) != 0.6 {
		t.Fatalf("Eval inside band = %v", f.Eval([]float64{0.1, 0.5, 0}))
	}
	// Box disjoint from the band bounds to +Inf.
	boxOut := NewBox([]float64{0, 0.7, 0}, []float64{1, 1, 1})
	if !math.IsInf(f.LowerBound(boxOut), 1) {
		t.Fatal("LowerBound of disjoint box not +Inf")
	}
	// Box overlapping the band clips: min = 0 + 0.4.
	boxIn := NewBox([]float64{0, 0, 0}, []float64{1, 1, 1})
	if got := f.LowerBound(boxIn); got != 0.4 {
		t.Fatalf("LowerBound = %v, want 0.4", got)
	}
	if len(f.Attrs()) != 2 {
		t.Fatalf("Attrs = %v", f.Attrs())
	}
	// A ±Inf bound is an open band, in the schema; a NaN one is not.
	open := Constrained(inner, 1, math.Inf(-1), 0.6)
	if got := open.Attrs(); len(got) != 2 || got[0] != 0 || open.Eval([]float64{0.1, -5, 0}) != -4.9 {
		t.Fatalf("open band: Attrs = %v, Eval = %v", got, open.Eval([]float64{0.1, -5, 0}))
	}
	if got := Constrained(inner, 1, math.NaN(), 0.6).Attrs(); got[0] != -1 {
		t.Fatalf("NaN bound: Attrs = %v, want dimension -1", got)
	}
	// The band's dimension prints as given, out of range too: the text goes
	// into the error that rejects it.
	for attr, want := range map[int]string{1: "eta(N1)", -1: "eta(N-1)", 123456789: "eta(N123456789)"} {
		if got := Constrained(inner, attr, 0.4, 0.6).String(); !strings.HasSuffix(got, want) {
			t.Fatalf("dimension %d prints as %q, want a suffix %q", attr, got, want)
		}
	}
}

func TestMonotoneDirections(t *testing.T) {
	f := Linear([]int{0, 1}, []float64{2, -1})
	d := f.Directions()
	if d[0] != 1 || d[1] != -1 {
		t.Fatalf("Directions = %v", d)
	}
	if !IsConvexFunc(f) {
		t.Fatal("linear not convex")
	}
	var m Monotone = f
	_ = m
	var sm SemiMonotone = SqDist([]int{0}, []float64{0.5})
	if sm.Extreme()[0] != 0.5 {
		t.Fatalf("Extreme = %v", sm.Extreme())
	}
}

func TestQuickBoundProperty(t *testing.T) {
	// Property: for random linear functions, LowerBound equals the minimum
	// over the box corners.
	f := func(w0, w1 float64, seed int64) bool {
		if math.IsNaN(w0) || math.IsNaN(w1) || math.IsInf(w0, 0) || math.IsInf(w1, 0) {
			return true
		}
		// Fold arbitrary quick-generated magnitudes into a numerically sane
		// range; the property under test is geometric, not about overflow.
		w0 = math.Remainder(w0, 100)
		w1 = math.Remainder(w1, 100)
		rng := rand.New(rand.NewSource(seed))
		fn := Linear([]int{0, 1}, []float64{w0, w1})
		box, _ := randBoxAndPoint(rng, 2)
		lb := fn.LowerBound(box)
		best := math.Inf(1)
		for _, x := range []float64{box.Lo[0], box.Hi[0]} {
			for _, y := range []float64{box.Lo[1], box.Hi[1]} {
				if v := fn.Eval([]float64{x, y}); v < best {
					best = v
				}
			}
		}
		return math.Abs(lb-best) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBoxBasics(t *testing.T) {
	b := UnitBox(3)
	if b.Dims() != 3 {
		t.Fatalf("Dims = %d", b.Dims())
	}
	if !b.Contains([]float64{0.5, 0, 1}) {
		t.Fatal("Contains failed")
	}
	if b.Contains([]float64{1.5, 0, 0}) {
		t.Fatal("Contains accepted outside point")
	}
	c := b.Clone()
	c.Lo[0] = 0.5
	if b.Lo[0] != 0 {
		t.Fatal("Clone aliases")
	}
	ctr := b.AppendCenter(nil)
	if ctr[0] != 0.5 || ctr[2] != 0.5 {
		t.Fatalf("Center = %v", ctr)
	}
}
