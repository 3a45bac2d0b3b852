package skyline

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/pager"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// pairwiseSkyline is the naive oracle for ScanSkyline: every live tuple
// matching q that no other one dominates, by ascending coordinate sum and
// then tid, and the number of tuples let go.
func pairwiseSkyline(e *Engine, q Query) ([]Result, int64) {
	cube := e.Cube()
	tb := cube.Table()
	var cands []Result
	buf := make([]float64, tb.Schema().R())
	for i := 0; i < tb.Len(); i++ {
		tid := table.TID(i)
		if cube.Alive(tid) && tb.Matches(tid, q.Cond) {
			cands = append(cands, Result{TID: tid, Coord: q.appendPoint(nil, tb.RankRow(tid, buf))})
		}
	}
	var sky []Result
	var pruned int64
	for _, c := range cands {
		if slices.ContainsFunc(cands, func(o Result) bool { return dominates(o.Coord, c.Coord) }) {
			pruned++
			continue
		}
		sky = append(sky, c)
	}
	sort.SliceStable(sky, func(a, b int) bool { return sum(sky[a].Coord) < sum(sky[b].Coord) })
	return sky, pruned
}

// sameAsPairwise holds ScanSkyline to the oracle: the same members in the
// same order, the same tuples let go, one sequential pass charged.
func sameAsPairwise(t *testing.T, what string, e *Engine, q Query) []Result {
	t.Helper()
	ctr := stats.New()
	got, snap, err := e.ScanSkyline(q, ctr)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, pruned := pairwiseSkyline(e, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: skyline %v, want %v", what, got, want)
	}
	if ctr.DominationPruned != pruned {
		t.Fatalf("%s: DominationPruned %d, want %d", what, ctr.DominationPruned, pruned)
	}
	tb := e.Cube().Table()
	if reads := ctr.Reads(stats.StructTable); reads != int64(core.SeqPages(tb, pager.PageSize)) || ctr.TotalReads() != reads {
		t.Fatalf("%s: %d reads (%d of the table), want one pass of %d pages", what, ctr.TotalReads(), reads, core.SeqPages(tb, pager.PageSize))
	}
	if !snap.Degraded() {
		t.Fatalf("%s: the fallback's snapshot is not marked degraded", what)
	}
	return got
}

// coarse rounds every ranking value to a tenth, so that points repeat: equal
// members, tuples equal to a member, and ties in coordinate sum.
func coarse(tb *table.Table) *table.Table {
	out := table.MustNew(tb.Schema())
	sel := make([]int32, tb.Schema().S())
	rank := make([]float64, tb.Schema().R())
	for i := 0; i < tb.Len(); i++ {
		tid := table.TID(i)
		for d := range sel {
			sel[d] = tb.Sel(tid, d)
		}
		for d := range rank {
			rank[d] = math.Round(tb.Rank(tid, d)*10) / 10
		}
		out.Append(sel, rank)
	}
	return out
}

func TestScanSkylineMatchesPairwise(t *testing.T) {
	queries := []Query{
		{Dims: []int{0, 1}},
		{Cond: core.Cond{0: 1}, Dims: []int{0, 1}},
		{Cond: core.Cond{0: 2, 1: 0}, Dims: []int{0, 1, 2}},
		{Cond: core.Cond{1: 1}, Dims: []int{1, 2}, Target: []float64{0.5, 0.3}},
	}
	build := func(tb *table.Table) *Engine {
		return NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 12}}))
	}
	uniform := table.Generate(table.GenSpec{T: 3000, S: 2, R: 3, Card: 3, Seed: 121})
	anti := table.Generate(table.GenSpec{T: 3000, S: 2, R: 3, Card: 3, Dist: table.AntiCorrelated, Seed: 122})

	t.Run("duplicates", func(t *testing.T) {
		e := build(coarse(uniform))
		twins := 0
		for _, q := range queries {
			sky := sameAsPairwise(t, "coarse", e, q)
			for i := 1; i < len(sky); i++ {
				if slices.Equal(sky[i-1].Coord, sky[i].Coord) {
					twins++
				}
			}
		}
		if twins == 0 {
			t.Fatal("no skyline holds two equal points: the case is not covered")
		}
	})
	t.Run("anti-correlated", func(t *testing.T) {
		e := build(anti)
		for _, q := range queries {
			sameAsPairwise(t, "anti-correlated", e, q)
		}
	})
	t.Run("deleted", func(t *testing.T) {
		e := build(coarse(anti))
		rng := rand.New(rand.NewSource(123))
		for round := 0; round < 3; round++ {
			for _, q := range queries {
				sky := sameAsPairwise(t, "after deletes", e, q)
				// Delete a member of each answer and a few tuples at random.
				if len(sky) > 0 && !e.Cube().Delete(sky[rng.Intn(len(sky))].TID, stats.New()) {
					t.Fatal("a skyline member was not in the partition")
				}
				for i := 0; i < 40; i++ {
					e.Cube().Delete(table.TID(rng.Intn(3000)), stats.New())
				}
			}
		}
	})
}
