package sigcube

import (
	"errors"
	"slices"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// TestSignatureQueryAllocs pins what a warmed-up signature top-k allocates,
// on one materialized cell and on a conjunction of two atomic cells assembled
// online: the view handles (one per cell, and the conjunction), the scanner,
// its accessor and the answer. The loaded runs, the leaf index, the leaf
// decodes, the candidates and the collected answer come from pools.
func TestSignatureQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	tb := table.Generate(table.GenSpec{T: 20000, S: 3, R: 2, Card: 5, Seed: 91})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 16}, Cuboids: [][]int{{0}, {1}, {2}, {0, 2}}})
	f := ranking.Linear([]int{0, 1}, []float64{1, 2.5})
	for _, tc := range []struct {
		name string
		cond core.Cond
		want float64
	}{
		{"one cell", core.Cond{0: 1, 2: 3}, 8},
		{"conjunction", core.Cond{0: 1, 1: 3}, 18},
	} {
		ctr := stats.New()
		if res, err := cube.TopK(tc.cond, f, 10, ctr); err != nil || len(res) != 10 {
			t.Fatalf("%s: %d results, err %v", tc.name, len(res), err)
		}
		if ctr.Reads(stats.StructSignature) == 0 {
			t.Fatalf("%s: the query loaded no partial", tc.name)
		}
		if got := testing.AllocsPerRun(200, func() { cube.TopK(tc.cond, f, 10, ctr) }); got != tc.want {
			t.Fatalf("%s: a query allocates %v times, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPooledViewAfterAbort: a query that aborts in the middle of its search —
// at every read budget below what it needs, so at every load and every node it
// reads — leaves nothing behind in the pooled views and candidates for the
// next query, which answers and reads, structure by structure, as it did on
// fresh storage.
func TestPooledViewAfterAbort(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 20000, S: 3, R: 2, Card: 5, Seed: 93})
	// Small pages: every cell decomposes into several partials.
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 16}, PageSize: 256})
	aborted := core.Cond{0: 2, 1: 4}
	f := ranking.SqDist([]int{0, 1}, []float64{0.3, 0.7})
	for _, clean := range []core.Cond{{0: 1, 2: 3}, {1: 0}} {
		wantCtr := stats.New()
		want, err := cube.TopK(clean, ranking.Sum(0, 1), 25, wantCtr)
		if err != nil {
			t.Fatal(err)
		}
		full := stats.New()
		if _, err := cube.TopK(aborted, f, 40, full); err != nil {
			t.Fatal(err)
		}
		if full.Reads(stats.StructSignature) < 4 {
			t.Fatalf("the aborted query loads %d partials: too few to abort between loads", full.Reads(stats.StructSignature))
		}
		for limit := int64(1); limit < full.TotalReads(); limit++ {
			_, err := governedTopK(cube, aborted, f, 40, stats.Governed(nil, stats.Limits{MaxBlockReads: limit}, nil))
			if !errors.Is(err, errs.ErrBudgetExceeded) {
				t.Fatalf("limit %d: err = %v, want ErrBudgetExceeded", limit, err)
			}
			ctr := stats.New()
			got, err := cube.TopK(clean, ranking.Sum(0, 1), 25, ctr)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || ctr.ReadCounts() != wantCtr.ReadCounts() {
				t.Fatalf("after an abort at %d reads: %v (reads %v), serial %v (reads %v)",
					limit, got, ctr.ReadCounts(), want, wantCtr.ReadCounts())
			}
		}
	}
}

// governedTopK runs a top-k that may abort, returning the abort as an error.
func governedTopK(c *Cube, cond core.Cond, f ranking.Func, k int, ctr *stats.Counters) (res []core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok {
				panic(r)
			}
			err = abort
		}
	}()
	return c.TopK(cond, f, k, ctr)
}
