package ranking

import (
	"math"
	"math/rand"
	"testing"
)

// treeEval is the tree evaluator General's program replaced: a recursive
// walk, each node combining its operands' values after computing them left
// to right.
func treeEval(e Expr, x []float64) float64 {
	switch t := e.(type) {
	case Var:
		return x[t]
	case Const:
		return float64(t)
	case binary:
		lv, rv := treeEval(t.l, x), treeEval(t.r, x)
		switch t.op {
		case '+':
			return lv + rv
		case '-':
			return lv - rv
		default:
			return lv * rv
		}
	case unary:
		v := treeEval(t.e, x)
		switch t.op {
		case 's':
			return v * v
		case 'a':
			if v < 0 {
				return -v
			}
			return v
		default:
			return -v
		}
	}
	panic("treeEval: unknown node")
}

// treeBound is treeEval's interval twin.
func treeBound(e Expr, box Box) Interval {
	switch t := e.(type) {
	case Var:
		return Interval{box.Lo[t], box.Hi[t]}
	case Const:
		return Point(float64(t))
	case binary:
		lv, rv := treeBound(t.l, box), treeBound(t.r, box)
		switch t.op {
		case '+':
			return lv.Add(rv)
		case '-':
			return lv.Sub(rv)
		default:
			return lv.Mul(rv)
		}
	case unary:
		v := treeBound(t.e, box)
		switch t.op {
		case 's':
			return v.Sqr()
		case 'a':
			return v.Abs()
		default:
			return v.Neg()
		}
	}
	panic("treeBound: unknown node")
}

var negZero = math.Copysign(0, -1)

// randExpr draws a tree of at most depth levels over dims dimensions using
// every node kind, its constants including ±0.
func randExpr(rng *rand.Rand, depth, dims int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return Const([]float64{0, negZero, -1.5, 2, 0.1}[rng.Intn(5)])
		case 1:
			return Const(rng.Float64()*4 - 2)
		default:
			return Var(rng.Intn(dims))
		}
	}
	switch rng.Intn(8) {
	case 0:
		return Add(randExpr(rng, depth-1, dims), randExpr(rng, depth-1, dims), randExpr(rng, depth-1, dims))
	case 1:
		return Sub(randExpr(rng, depth-1, dims), randExpr(rng, depth-1, dims))
	case 2:
		return Mul(randExpr(rng, depth-1, dims), randExpr(rng, depth-1, dims))
	case 3:
		return Scale(rng.Float64()*4-2, randExpr(rng, depth-1, dims))
	case 4:
		return Sqr(randExpr(rng, depth-1, dims))
	case 5:
		return Abs(randExpr(rng, depth-1, dims))
	case 6:
		return Neg(randExpr(rng, depth-1, dims))
	default:
		return Add(randExpr(rng, depth-1, dims), randExpr(rng, depth-1, dims))
	}
}

// deepExpr nests n subtractions to the right, so its program's stack grows
// to n+1 values.
func deepExpr(n int) Expr {
	e := Expr(Abs(Var(0)))
	for i := 0; i < n; i++ {
		e = Sub(Var(i%3), e)
	}
	return e
}

// TestCompiledExprMatchesTree: General's program scores and bounds bit for
// bit like the tree it was compiled from, on boxes that straddle 0, on −0
// (Abs keeps it), and on a tree deeper than the program's fixed stack; within
// that stack neither allocates.
func TestCompiledExprMatchesTree(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(1))
	exprs := []Expr{
		Abs(Const(negZero)),
		Abs(Var(0)),
		Sqr(Sub(Scale(2, Var(0)), Add(Var(1), Var(2)))),
		deepExpr(2 * stackCap),
	}
	for i := 0; i < 500; i++ {
		exprs = append(exprs, randExpr(rng, 6, dims))
	}
	if p := compile(exprs[3]); p.depth <= stackCap {
		t.Fatalf("the deep tree reaches stack depth %d, not past %d", p.depth, stackCap)
	}
	lo, hi, x := make([]float64, dims), make([]float64, dims), make([]float64, dims)
	box := NewBox(lo, hi)
	for _, e := range exprs {
		f := General(e)
		for trial := 0; trial < 20; trial++ {
			for d := 0; d < dims; d++ {
				a, b := rng.Float64()*4-2, rng.Float64()*4-2
				switch trial % 4 {
				case 0: // straddle 0
					a, b = -math.Abs(a), math.Abs(b)
				case 1: // a point, −0 on dimension 0
					b = a
					if d == 0 {
						a, b = negZero, negZero
					}
				}
				lo[d], hi[d] = min(a, b), max(a, b)
				x[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
			}
			if trial%4 == 1 {
				x[0] = negZero
			}
			if got, want := f.Eval(x), treeEval(e, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v at %v: program %v, tree %v", e, x, got, want)
			}
			if got, want := f.LowerBound(box), treeBound(e, box).Lo; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v over %v: program bound %v, tree %v", e, box, got, want)
			}
		}
		if compile(e).depth > stackCap {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { f.Eval(x) }); n != 0 {
			t.Fatalf("%v: Eval allocates %v times", e, n)
		}
		if n := testing.AllocsPerRun(10, func() { f.LowerBound(box) }); n != 0 {
			t.Fatalf("%v: LowerBound allocates %v times", e, n)
		}
	}
}
