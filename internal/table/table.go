// Package table implements the base relation model of the thesis (§1.2.1):
// a relation R with categorical selection (boolean) dimensions A1..AS and
// real-valued ranking dimensions N1..NR. Columns are stored column-major;
// tuples are addressed by tuple id (tid), the unit every ranking-cube
// measure stores.
package table

import (
	"fmt"
	"math"

	"rankcube/internal/errs"
)

// TID is a tuple identifier: the position of the tuple in the relation.
type TID int32

// Schema describes a relation's dimensions.
type Schema struct {
	// SelNames names the selection dimensions A1..AS.
	SelNames []string
	// SelCard gives the cardinality of each selection dimension; values on
	// dimension d lie in [0, SelCard[d]).
	SelCard []int
	// RankNames names the ranking dimensions N1..NR.
	RankNames []string
}

// S reports the number of selection dimensions.
func (s Schema) S() int { return len(s.SelCard) }

// R reports the number of ranking dimensions.
func (s Schema) R() int { return len(s.RankNames) }

// Validate checks internal consistency.
func (s Schema) Validate() error {
	if len(s.SelNames) != len(s.SelCard) {
		return fmt.Errorf("table: %d selection names but %d cardinalities: %w",
			len(s.SelNames), len(s.SelCard), errs.ErrInvalidArgument)
	}
	for d, c := range s.SelCard {
		if c <= 0 {
			return fmt.Errorf("table: selection dimension %s has cardinality %d: %w",
				s.SelNames[d], c, errs.ErrInvalidArgument)
		}
	}
	return nil
}

// Table is an in-memory relation. The zero value is empty; construct with
// New and fill with Append, or use the generators in this package.
type Table struct {
	schema Schema
	sel    [][]int32   // sel[d][tid]
	rank   [][]float64 // rank[d][tid]
	n      int
}

// New returns an empty relation with the given schema, or the schema's
// validation error.
func New(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		schema: schema,
		sel:    make([][]int32, schema.S()),
		rank:   make([][]float64, schema.R()),
	}
	return t, nil
}

// MustNew is New for schemas that are valid by construction (derived from
// an existing relation, or built by this repository's generators). An
// invalid schema here is a programming error, reported as a typed abort so
// governed callers still receive an error rather than a crash.
func MustNew(schema Schema) *Table {
	t, err := New(schema)
	if err != nil {
		errs.Abortf(errs.ErrInvalidArgument, "table: %v", err)
	}
	return t
}

// Schema returns the relation's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len reports the number of tuples.
func (t *Table) Len() int { return t.n }

// Append adds one tuple and returns its tid. sel and rank are copied. A row
// that does not fit the schema — wrong arity, a selection value outside
// [0, SelCard[d]) — is refused whole with a typed ErrInvalidArgument abort
// before any column is touched, so a rejected row leaves the relation as
// it was and governed callers receive the error.
func (t *Table) Append(sel []int32, rank []float64) TID {
	if len(sel) != t.schema.S() || len(rank) != t.schema.R() {
		errs.Abortf(errs.ErrInvalidArgument, "table: Append arity mismatch: got %d/%d want %d/%d",
			len(sel), len(rank), t.schema.S(), t.schema.R())
	}
	for d, v := range sel {
		if v < 0 || int(v) >= t.schema.SelCard[d] {
			errs.Abortf(errs.ErrInvalidArgument, "table: selection value %d out of range for dimension %d (card %d)",
				v, d, t.schema.SelCard[d])
		}
	}
	for d, v := range sel {
		t.sel[d] = append(t.sel[d], v)
	}
	for d, v := range rank {
		t.rank[d] = append(t.rank[d], v)
	}
	t.n++
	return TID(t.n - 1)
}

// Sel returns the value of selection dimension d for tuple tid.
func (t *Table) Sel(tid TID, d int) int32 { return t.sel[d][tid] }

// Rank returns the value of ranking dimension d for tuple tid.
func (t *Table) Rank(tid TID, d int) float64 { return t.rank[d][tid] }

// RankRow fills buf (grown as needed) with tuple tid's full ranking vector
// and returns it.
func (t *Table) RankRow(tid TID, buf []float64) []float64 {
	r := t.schema.R()
	if cap(buf) < r {
		buf = make([]float64, r)
	}
	buf = buf[:r]
	for d := 0; d < r; d++ {
		buf[d] = t.rank[d][tid]
	}
	return buf
}

// SelRow fills buf with tuple tid's selection vector and returns it.
func (t *Table) SelRow(tid TID, buf []int32) []int32 {
	s := t.schema.S()
	if cap(buf) < s {
		buf = make([]int32, s)
	}
	buf = buf[:s]
	for d := 0; d < s; d++ {
		buf[d] = t.sel[d][tid]
	}
	return buf
}

// RankColumn exposes the column slice of ranking dimension d (read-only by
// convention; bulk loaders sort copies, never the column itself).
func (t *Table) RankColumn(d int) []float64 { return t.rank[d] }

// SelColumn exposes the column slice of selection dimension d.
func (t *Table) SelColumn(d int) []int32 { return t.sel[d] }

// RankDomain reports the observed [min, max] of ranking dimension d
// (degenerate [0,0] for an empty relation).
func (t *Table) RankDomain(d int) (lo, hi float64) {
	col := t.rank[d]
	if len(col) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// RankBounds reports the observed domain of every ranking dimension, widened
// by 1 where a dimension is constant, so that ranking.NewBox(t.RankBounds())
// is the box every partition tree over the relation is built on.
func (t *Table) RankBounds() (lo, hi []float64) {
	lo = make([]float64, len(t.rank))
	hi = make([]float64, len(t.rank))
	for d := range t.rank {
		lo[d], hi[d] = t.RankDomain(d)
		if hi[d] <= lo[d] {
			hi[d] = lo[d] + 1
		}
	}
	return lo, hi
}

// RowBytes estimates the stored width of one tuple: 4 bytes per selection
// dimension, 8 per ranking dimension, plus a 4-byte tid. Table-scan block
// costs in the baselines derive from this.
func (t *Table) RowBytes() int {
	return 4*t.schema.S() + 8*t.schema.R() + 4
}

// Matches reports whether tuple tid satisfies every equality predicate in
// cond (a map from selection-dimension index to required value).
func (t *Table) Matches(tid TID, cond map[int]int32) bool {
	for d, v := range cond {
		if t.sel[d][tid] != v {
			return false
		}
	}
	return true
}
