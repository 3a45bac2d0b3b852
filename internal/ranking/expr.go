package ranking

import (
	"fmt"
	"slices"
)

// Expr is a scoring expression over ranking attributes. Var indices refer to
// ranking-dimension positions, matching Box dimensions. Only this package's
// constructors build one; General compiles it into the program that scores
// and bounds it.
type Expr interface {
	// String renders the expression for diagnostics.
	String() string
	// emit appends the expression's postfix program to ops.
	emit(ops []op) []op
}

// op is one instruction of a compiled expression, a postfix program over a
// stack: code is 'v' (push dimension v), 'c' (push c), '+', '-', '*' (pop
// the right operand, combine it into the left), or 's' sqr, 'a' abs, 'n' neg
// (replace the top).
type op struct {
	code byte
	v    int32
	c    float64
}

// Var references ranking dimension int(v).
type Var int

func (v Var) emit(ops []op) []op { return append(ops, op{code: 'v', v: int32(v)}) }

func (v Var) String() string { return fmt.Sprintf("N%d", int(v)) }

// Const is a constant expression. A NaN or ±Inf constant compiles, as a nil
// expression does, to a reference to dimension −1.
type Const float64

func (c Const) emit(ops []op) []op {
	if !finite(float64(c)) {
		return append(ops, op{code: 'v', v: -1})
	}
	return append(ops, op{code: 'c', c: float64(c)})
}

func (c Const) String() string { return fmt.Sprintf("%g", float64(c)) }

type binary struct {
	op   byte // '+', '-', '*'
	l, r Expr
}

func (b binary) emit(ops []op) []op {
	return append(emit(emit(ops, b.l), b.r), op{code: b.op})
}

func (b binary) String() string {
	return fmt.Sprintf("(%s %c %s)", b.l, b.op, b.r)
}

type unary struct {
	op byte // 's' sqr, 'a' abs, 'n' neg
	e  Expr
}

func (u unary) emit(ops []op) []op { return append(emit(ops, u.e), op{code: u.op}) }

func (u unary) String() string {
	switch u.op {
	case 's':
		return fmt.Sprintf("(%s)^2", u.e)
	case 'a':
		return fmt.Sprintf("|%s|", u.e)
	default:
		return fmt.Sprintf("-(%s)", u.e)
	}
}

// emit appends e's program to ops. A nil expression references dimension −1,
// which every public entry point refuses as outside the schema.
func emit(ops []op, e Expr) []op {
	if e == nil {
		return append(ops, op{code: 'v', v: -1})
	}
	return e.emit(ops)
}

// Add returns l + r (variadic sums fold left).
func Add(terms ...Expr) Expr {
	if len(terms) == 0 {
		return Const(0)
	}
	e := terms[0]
	for _, t := range terms[1:] {
		e = binary{'+', e, t}
	}
	return e
}

// Sub returns l − r.
func Sub(l, r Expr) Expr { return binary{'-', l, r} }

// Mul returns l × r.
func Mul(l, r Expr) Expr { return binary{'*', l, r} }

// Sqr returns e².
func Sqr(e Expr) Expr { return unary{'s', e} }

// Abs returns |e|.
func Abs(e Expr) Expr { return unary{'a', e} }

// Neg returns −e.
func Neg(e Expr) Expr { return unary{'n', e} }

// Scale returns c × e.
func Scale(c float64, e Expr) Expr { return binary{'*', Const(c), e} }

// stackCap is the stack depth eval and bound keep in a fixed array; a deeper
// program takes its stack from the heap.
const stackCap = 8

// program is an expression compiled to postfix: the tree's operations in the
// tree's order, so a score or a bound is bit for bit the tree's.
type program struct {
	ops   []op
	depth int // the deepest the stack gets
}

func compile(e Expr) program {
	p := program{ops: emit(nil, e)}
	sp := 0
	for _, o := range p.ops {
		switch o.code {
		case 'v', 'c':
			sp++
		case '+', '-', '*':
			sp--
		}
		p.depth = max(p.depth, sp)
	}
	return p
}

// attrs lists the dimensions the program references, ascending.
func (p *program) attrs() []int {
	var attrs []int
	for _, o := range p.ops {
		if o.code == 'v' {
			attrs = append(attrs, int(o.v))
		}
	}
	slices.Sort(attrs)
	return slices.Compact(attrs)
}

// eval computes the expression at point x.
func (p *program) eval(x []float64) float64 {
	var buf [stackCap]float64
	st := buf[:]
	if p.depth > stackCap {
		st = make([]float64, p.depth)
	}
	sp := 0
	for _, o := range p.ops {
		switch o.code {
		case 'v':
			st[sp] = x[o.v]
			sp++
		case 'c':
			st[sp] = o.c
			sp++
		case '+':
			sp--
			st[sp-1] += st[sp]
		case '-':
			sp--
			st[sp-1] -= st[sp]
		case '*':
			sp--
			st[sp-1] *= st[sp]
		case 's':
			st[sp-1] *= st[sp-1]
		case 'a':
			if v := st[sp-1]; v < 0 {
				st[sp-1] = -v
			}
		default:
			st[sp-1] = -st[sp-1]
		}
	}
	return st[0]
}

// bound computes a sound lower bound of the expression over the box lo..hi:
// the low end of its interval enclosure.
func (p *program) bound(lo, hi []float64) float64 {
	var buf [stackCap]Interval
	st := buf[:]
	if p.depth > stackCap {
		st = make([]Interval, p.depth)
	}
	sp := 0
	for _, o := range p.ops {
		switch o.code {
		case 'v':
			st[sp] = Interval{lo[o.v], hi[o.v]}
			sp++
		case 'c':
			st[sp] = Point(o.c)
			sp++
		case '+':
			sp--
			st[sp-1] = st[sp-1].Add(st[sp])
		case '-':
			sp--
			st[sp-1] = st[sp-1].Sub(st[sp])
		case '*':
			sp--
			st[sp-1] = st[sp-1].Mul(st[sp])
		case 's':
			st[sp-1] = st[sp-1].Sqr()
		case 'a':
			st[sp-1] = st[sp-1].Abs()
		default:
			st[sp-1] = st[sp-1].Neg()
		}
	}
	return st[0].Lo
}
