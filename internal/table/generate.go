package table

import (
	"math"
	"math/rand"
	"strconv"
)

// Distribution selects the joint distribution of the ranking dimensions in
// synthetic data, matching the thesis' S = {E, C, A} setting (§4.4.1):
// uniform (independent), correlated, and anti-correlated.
type Distribution int

// Supported ranking-dimension distributions.
const (
	Uniform Distribution = iota
	Correlated
	AntiCorrelated
)

func (d Distribution) String() string {
	switch d {
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anti-correlated"
	default:
		return "uniform"
	}
}

// GenSpec parameterizes synthetic relation generation, mirroring thesis
// Table 3.8.
type GenSpec struct {
	// T is the number of tuples.
	T int
	// S is the number of selection dimensions.
	S int
	// R is the number of ranking dimensions.
	R int
	// Card is the cardinality of every selection dimension. Cards, when
	// non-nil, overrides Card with per-dimension cardinalities.
	Card  int
	Cards []int
	// Dist is the joint distribution of ranking values in [0,1].
	Dist Distribution
	// SelZipf, when > 0, draws selection values Zipf-skewed with the given
	// exponent instead of uniformly.
	SelZipf float64
	// Seed drives the deterministic generator.
	Seed int64
}

// Generate builds a synthetic relation per spec.
func Generate(spec GenSpec) *Table {
	cards := spec.Cards
	if cards == nil {
		cards = make([]int, spec.S)
		for i := range cards {
			cards[i] = spec.Card
		}
	}
	schema := Schema{
		SelNames:  defaultNames("A", len(cards)),
		SelCard:   cards,
		RankNames: defaultNames("N", spec.R),
	}
	t := MustNew(schema)
	rng := rand.New(rand.NewSource(spec.Seed))

	var zipf *rand.Zipf
	if spec.SelZipf > 0 {
		// rand.Zipf requires s > 1; clamp from below.
		s := spec.SelZipf
		if s <= 1 {
			s = 1.001
		}
		zipf = rand.NewZipf(rng, s, 1, uint64(maxCard(cards)-1))
	}

	sel := make([]int32, len(cards))
	rank := make([]float64, spec.R)
	for i := 0; i < spec.T; i++ {
		for d, c := range cards {
			if zipf != nil {
				sel[d] = int32(zipf.Uint64()) % int32(c)
			} else {
				sel[d] = int32(rng.Intn(c))
			}
		}
		drawRank(rng, spec.Dist, rank)
		t.Append(sel, rank)
	}
	return t
}

// drawRank fills rank with one sample of the requested joint distribution,
// each coordinate in [0,1].
func drawRank(rng *rand.Rand, dist Distribution, rank []float64) {
	switch dist {
	case Correlated:
		// A shared latent value plus small independent jitter, the standard
		// correlated-skyline generator shape.
		base := rng.Float64()
		for d := range rank {
			v := base + rng.NormFloat64()*0.05
			rank[d] = clamp01(v)
		}
	case AntiCorrelated:
		// Points scattered around the anti-diagonal plane Σx = len/2.
		base := 0.5 + rng.NormFloat64()*0.12
		remaining := base * float64(len(rank))
		for d := 0; d < len(rank)-1; d++ {
			share := rng.Float64() * math.Min(1, remaining)
			rank[d] = clamp01(share)
			remaining -= share
		}
		rank[len(rank)-1] = clamp01(remaining)
		// Shuffle coordinates so no dimension is systematically last.
		rng.Shuffle(len(rank), func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	default:
		for d := range rank {
			rank[d] = rng.Float64()
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func defaultNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i+1)
	}
	return names
}

func maxCard(cards []int) int {
	m := 2
	for _, c := range cards {
		if c > m {
			m = c
		}
	}
	return m
}
