package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rankcube"
)

// The benchmark owns its generators: relations are filled row by row through
// NewRelation + Append from a seeded math/rand stream, so a change to the
// repository's own synthetic-data code cannot silently change the load.

// zipfS is the skew of every zipfian draw (selection values in the data and
// in the predicates): hot cells recur, the case that matters for cube cells
// and compressed bit vectors.
const zipfS = 1.2

// zipfCDF tabulates P(value ≤ k) for P(k) ∝ (1+k)^−zipfS over [0, card).
func zipfCDF(card int) []float64 {
	cdf := make([]float64, card)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(1+k), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// quantile maps u in [0,1) to the value whose CDF interval holds it.
func quantile(cdf []float64, u float64) int32 {
	k := sort.SearchFloat64s(cdf, u)
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	return int32(k)
}

// valueSource draws one selection value in [0, card).
type valueSource func() int32

func zipfValues(rng *rand.Rand, card int) valueSource {
	cdf := zipfCDF(card)
	return func() int32 { return quantile(cdf, rng.Float64()) }
}

func uniformValues(rng *rand.Rand, card int) valueSource {
	return func() int32 { return int32(rng.Intn(card)) }
}

// rankSource fills one ranking vector with coordinates in [0,1].
type rankSource func(rank []float64)

func uniformRanks(rng *rand.Rand) rankSource {
	return func(rank []float64) {
		for d := range rank {
			rank[d] = rng.Float64()
		}
	}
}

// antiCorrelatedRanks scatters points around the plane Σx = R/2, the shape
// that makes skylines large. Out-of-range draws are rejected, not clamped, so
// no two tuples tie on a coordinate and skyline membership stays unambiguous.
func antiCorrelatedRanks(rng *rand.Rand) rankSource {
	return func(rank []float64) {
		for {
			mean := 0.0
			for d := range rank {
				rank[d] = rng.Float64()
				mean += rank[d]
			}
			shift := mean/float64(len(rank)) - 0.5 - rng.NormFloat64()*0.12
			ok := true
			for d := range rank {
				rank[d] -= shift
				if rank[d] < 0 || rank[d] > 1 {
					ok = false
				}
			}
			if ok {
				return
			}
		}
	}
}

// newRelation builds a relation of n rows with s selection dimensions of
// cardinality card and r ranking dimensions.
func newRelation(n, s, card, r int, sel valueSource, rank rankSource) (*rankcube.Relation, error) {
	selNames := make([]string, s)
	cards := make([]int, s)
	for d := range selNames {
		selNames[d] = fmt.Sprintf("A%d", d)
		cards[d] = card
	}
	rankNames := make([]string, r)
	for d := range rankNames {
		rankNames[d] = fmt.Sprintf("N%d", d)
	}
	rel, err := rankcube.NewRelation(selNames, cards, rankNames)
	if err != nil {
		return nil, fmt.Errorf("workload: new relation: %w", err)
	}
	selRow := make([]int32, s)
	rankRow := make([]float64, r)
	for i := 0; i < n; i++ {
		for d := range selRow {
			selRow[d] = sel()
		}
		rank(rankRow)
		rel.Append(selRow, rankRow)
	}
	return rel, nil
}

// FuncKind names the three ranking-function families the workloads draw
// from: convex with a closed-form minimizer (Linear, SqDist) and an ad hoc
// expression with interval-arithmetic bounds only (General).
type FuncKind uint8

// Ranking-function families.
const (
	Linear FuncKind = iota
	SqDist
	General
)

// FuncSpec is the serializable description of one ad hoc ranking function
// over ranking dimensions 0..Dims-1.
type FuncSpec struct {
	Kind FuncKind
	Dims int
	// P holds the weights (Linear), the target point (SqDist), or in P[0] the
	// coefficient a of (a·N0 − (N1+…))² (General), each drawn from [0,1)
	// (a from [0.5,1.5)).
	P [3]float64
}

func newFunc(kind FuncKind, dims int, u []float64) FuncSpec {
	f := FuncSpec{Kind: kind, Dims: dims}
	if kind == General {
		f.P[0] = 0.5 + u[0]
		return f
	}
	copy(f.P[:dims], u)
	return f
}

func randomFunc(rng *rand.Rand, kind FuncKind, dims int) FuncSpec {
	return newFunc(kind, dims, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
}

// Build constructs the ranking function through the public constructors.
func (f FuncSpec) Build() rankcube.Func {
	attrs := make([]int, f.Dims)
	for d := range attrs {
		attrs[d] = d
	}
	switch f.Kind {
	case Linear:
		return rankcube.Linear(attrs, f.P[:f.Dims])
	case SqDist:
		return rankcube.SqDist(attrs, f.P[:f.Dims])
	}
	rest := make([]rankcube.Expr, 0, f.Dims-1)
	for d := 1; d < f.Dims; d++ {
		rest = append(rest, rankcube.Var(d))
	}
	return rankcube.General(rankcube.Sqr(rankcube.Sub(
		rankcube.Scale(f.P[0], rankcube.Var(0)), rankcube.Add(rest...))))
}

// kMix is the result-size mix of every top-k workload.
var kMix = [...]int{1, 10, 10, 10, 100}

// randomCond draws a conjunctive predicate over dims distinct selection
// dimensions out of s.
func randomCond(rng *rand.Rand, s, dims int, val valueSource) rankcube.Cond {
	cond := rankcube.Cond{}
	for _, d := range rng.Perm(s)[:dims] {
		cond[d] = val()
	}
	return cond
}

// queryCoords is how many independent choices describe one top-k query.
const queryCoords = 10

// quasi is a Halton sequence under a seeded random shift: point i has
// coordinate frac(radicalInverse(i, prime_c) + shift_c). Top-k queries take
// every choice they make (predicate width and dimensions, predicate values
// through the zipf quantile function, function family and parameters, k) from
// one such point each. Every seed still gets its own query list, but any
// stretch of any list covers the space of choices evenly, so what a
// ten-second window measures depends on the code under test and not on how
// many expensive queries that seed happened to deal it. The predicate values
// stay zipfian: the quantile function sees evenly spread u, not evenly spread
// values.
type quasi struct{ shift [queryCoords]float64 }

// quasiPrimes skips 2: with two clients splitting ops by parity, a base-2
// coordinate would hand each client one half of its range.
var quasiPrimes = [queryCoords]int{3, 5, 7, 11, 13, 17, 19, 23, 29, 31}

func newQuasi(rng *rand.Rand) *quasi {
	q := &quasi{}
	for c := range q.shift {
		q.shift[c] = rng.Float64()
	}
	return q
}

func (q *quasi) point(i int) (u [queryCoords]float64) {
	for c, base := range quasiPrimes {
		inv, f := 0.0, 1.0/float64(base)
		for n := i + 1; n > 0; n /= base {
			inv += float64(n%base) * f
			f /= float64(base)
		}
		u[c] = math.Mod(inv+q.shift[c], 1)
	}
	return u
}

// pick maps u in [0,1) to an index in [0,n).
func pick(u float64, n int) int {
	i := int(u * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}
