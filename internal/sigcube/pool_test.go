package sigcube

import (
	"errors"
	"math/rand"
	"runtime"
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
// online: the view handles (one per cell, and the conjunction), the
// condition's dimensions and the cuboid's key (Cond.Dims, Cube.Cuboid), the
// tester's stages and the answer. The loaded runs, the leaf index, the leaf
// decodes, the scanner with its accessor, candidates, bound and collected
// answer, and the root's box come from pools.
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
		{"one cell", core.Cond{0: 1, 2: 3}, 6},
		{"conjunction", core.Cond{0: 1, 1: 3}, 16},
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

// TestReusedSearchRecordsLikeFresh: a BestFirst started again keeps its
// storage but not its record of deferred survivors. Over a run of queries
// through one search, the record after each is as long as a fresh search's
// for the same query.
func TestReusedSearchRecordsLikeFresh(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 20000, S: 3, R: 2, Card: 5, Seed: 95})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 16}, Cuboids: [][]int{{0}, {1}, {2}}})
	// run starts s on one query from the root, pulls k answers and returns the
	// length of its record.
	run := func(s *BestFirst[int32], cond core.Cond, f ranking.Func, k int) int {
		ctr := stats.New()
		tester, any, err := cube.TesterFor(cond, ctr)
		if err != nil || !any {
			t.Fatalf("cond %v: tester err %v, any %v", cond, err, any)
		}
		s.Start(cube.rt, tester, cube.Verifier(cond, ctr), f, nil, ctr)
		defer s.Release()
		root := cube.rt.Root()
		s.push(State[int32]{Score: f.LowerBound(cube.rt.NodeBox(root, cube.rt.Domain().Clone())), Ref: int32(root)})
		for i := 0; i < k; i++ {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		return len(s.kids)
	}
	rng := rand.New(rand.NewSource(96))
	var reused BestFirst[int32]
	deferred := 0
	for q := 0; q < 60; q++ {
		cond := core.Cond{rng.Intn(3): int32(rng.Intn(5))}
		f := ranking.Linear([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
		k := 1 + rng.Intn(50)
		got, want := run(&reused, cond, f, k), run(new(BestFirst[int32]), cond, f, k)
		if got != want {
			t.Fatalf("query %d: the reused search records %d survivors, a fresh one %d", q, got, want)
		}
		deferred += want
	}
	if deferred == 0 {
		t.Fatal("no query deferred a survivor: the record is never used")
	}
}

// TestSignatureWriteAllocs pins what a warm insert and a warm delete allocate
// on a Zipf-skewed cube, and bounds the bytes: the decoded cells, their Kids
// and bits, the replay queue and the partial pages come out of the encoder's
// storage and the freed pages' buffers. What is left is the write's own
// bookkeeping — the path and update slices, the SID lists of the cells it
// decodes and frees — the Stored of each rewritten cell with its partials,
// and now and then a page no freed buffer suits: about 1.9 KB a write. An
// encoder that took no storage back would allocate hundreds of kilobytes a
// write.
func TestSignatureWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	tb := table.Generate(table.GenSpec{T: 20000, S: 3, R: 2, Card: 10, SelZipf: 1.1, Seed: 97})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 16}})
	sel, rank := []int32{0, 0, 1}, []float64{0.4, 0.6}
	ctr := stats.New()
	write := func() {
		tid := cube.Insert(sel, rank, ctr)
		if !cube.Delete(tid, ctr) {
			t.Fatal("the tuple just inserted is not there to delete")
		}
	}
	for i := 0; i < 5; i++ {
		write()
	}
	if ctr.Reads(stats.StructSignature) == 0 {
		t.Fatal("the writes decoded no partial")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	got := testing.AllocsPerRun(runs, write)
	runtime.ReadMemStats(&after)
	if want := 124.0; got != want {
		t.Fatalf("an insert and a delete allocate %v times, want %v", got, want)
	}
	if perWrite := (after.TotalAlloc - before.TotalAlloc) / (2 * (runs + 1)); perWrite > 4096 {
		t.Fatalf("a write allocates %d bytes, want at most 4096", perWrite)
	}
}
