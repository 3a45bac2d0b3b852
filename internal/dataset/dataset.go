// Package dataset builds the evaluation datasets of the thesis: the
// parameterized synthetic families of Tables 3.8/§4.4.1/§5.4.1 and a
// deterministic clone of the UCI Forest CoverType data with the same shape
// the thesis uses (§3.5.1): 12 selection dimensions with cardinalities
// 255, 207, 185, 67, 7, 2, 2, 2, 2, 2, 2, 2 and 3 quantitative ranking
// dimensions with cardinalities near 2k-6k, duplicated 5× to ~3.5M rows
// (scaled down by default for in-memory benchmarking).
package dataset

import (
	"math/rand"

	"rankcube/internal/table"
)

// ForestCoverCards are the selection-dimension cardinalities of the
// thesis' Forest CoverType configuration.
var ForestCoverCards = []int{255, 207, 185, 67, 7, 2, 2, 2, 2, 2, 2, 2}

// forestRankCards are the value counts of the three quantitative ranking
// attributes (thesis: 1989, 5787, 5827).
var forestRankCards = []int{1989, 5787, 5827}

// ForestCover synthesizes a CoverType-shaped relation with n tuples.
//
// The real data is unavailable offline; this clone reproduces the
// properties the experiments exploit — the cardinality profile of the
// selection dimensions (including the many binary soil-type columns, which
// drive boolean selectivity) and quantized, mildly correlated ranking
// attributes (terrain variables correlate in the original).
func ForestCover(n int, seed int64) *table.Table {
	schema := table.Schema{
		SelNames: []string{
			"wilderness", "soil_group", "climate_zone", "geo_zone",
			"cover_class", "b1", "b2", "b3", "b4", "b5", "b6", "b7",
		},
		SelCard:   append([]int(nil), ForestCoverCards...),
		RankNames: []string{"elevation", "h_dist_road", "h_dist_fire"},
	}
	t := table.MustNew(schema)
	rng := rand.New(rand.NewSource(seed))
	sel := make([]int32, len(schema.SelCard))
	rank := make([]float64, 3)
	for i := 0; i < n; i++ {
		// Terrain latent factor correlates the quantitative columns, as in
		// the real data (distance measures grow with remoteness).
		latent := rng.Float64()
		for d, card := range schema.SelCard {
			if card == 2 {
				// Binary soil flags are sparse in the original: mostly 0.
				if rng.Float64() < 0.15 {
					sel[d] = 1
				} else {
					sel[d] = 0
				}
				continue
			}
			// Larger-cardinality columns skew toward low codes.
			v := int(rng.ExpFloat64() * float64(card) / 4)
			if v >= card {
				v = card - 1
			}
			sel[d] = int32(v)
		}
		for d := 0; d < 3; d++ {
			v := 0.55*latent + 0.45*rng.Float64()
			// Quantize to the attribute's cardinality as in the source data.
			steps := float64(forestRankCards[d])
			rank[d] = float64(int(v*steps)) / steps
		}
		t.Append(sel, rank)
	}
	return t
}

// ForestCoverWide is the 6-quantitative-attribute CoverType variation the
// thesis uses for index-merge experiments (§5.4.1: "1,162,024 data points
// with 6 selected attributes"). Selection dimensions are dropped; the six
// ranking dimensions keep the quantized, correlated character.
func ForestCoverWide(n int, seed int64) *table.Table {
	cards := []int{255, 207, 185, 1989, 5787, 5827}
	schema := table.Schema{
		SelNames:  []string{"dummy"},
		SelCard:   []int{2},
		RankNames: []string{"a1", "a2", "a3", "a4", "a5", "a6"},
	}
	t := table.MustNew(schema)
	rng := rand.New(rand.NewSource(seed))
	rank := make([]float64, 6)
	for i := 0; i < n; i++ {
		latent := rng.Float64()
		for d := 0; d < 6; d++ {
			v := 0.5*latent + 0.5*rng.Float64()
			steps := float64(cards[d])
			rank[d] = float64(int(v*steps)) / steps
		}
		t.Append([]int32{int32(i % 2)}, rank)
	}
	return t
}

// Synthetic is a convenience wrapper over table.Generate matching the
// thesis' default synthetic configuration (Table 3.8): T tuples, S
// selection dimensions of cardinality C, R ranking dimensions, uniform
// unless a distribution is given.
func Synthetic(T, S, R, C int, dist table.Distribution, seed int64) *table.Table {
	return table.Generate(table.GenSpec{T: T, S: S, R: R, Card: C, Dist: dist, Seed: seed})
}

// JoinPair builds two relations with a shared join-key domain for SPJR
// experiments (§6.4): each relation has S selection dims of cardinality C
// and R ranking dims; join keys are uniform over keyCard values.
func JoinPair(T, S, R, C, keyCard int, seed int64) (r1, r2 *table.Table, k1, k2 []int32) {
	r1 = table.Generate(table.GenSpec{T: T, S: S, R: R, Card: C, Seed: seed})
	r2 = table.Generate(table.GenSpec{T: T, S: S, R: R, Card: C, Seed: seed + 1})
	rng := rand.New(rand.NewSource(seed + 2))
	k1 = make([]int32, T)
	k2 = make([]int32, T)
	for i := 0; i < T; i++ {
		k1[i] = int32(rng.Intn(keyCard))
		k2[i] = int32(rng.Intn(keyCard))
	}
	return r1, r2, k1, k2
}
