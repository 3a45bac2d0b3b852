package indexmerge

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
)

// governedTopK runs a merge against ctr, returning the typed abort that
// stopped it, if any.
func governedTopK(idx []hindex.Index, f ranking.Func, k int, ctr *stats.Counters) (res []core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok {
				panic(r)
			}
			err = abort
		}
	}()
	return TopK(idx, f, k, Options{}, ctr)
}

// pageTrail records, in order, the pages a merge accesses in the stores of its
// indices.
func pageTrail(idx []hindex.Index, trail *[]pager.PageID) (stop func()) {
	for i, ix := range idx {
		ix.Store().SetFaultInjector(&pager.ScriptedFaults{OnRead: func(id pager.PageID, _ int) {
			*trail = append(*trail, pager.PageID(i)<<24|id)
		}})
	}
	return func() {
		for _, ix := range idx {
			ix.Store().SetFaultInjector(nil)
		}
	}
}

// TestGovernorBoundsOnMerge holds the governor to its two bounds on the merge
// loop: a query canceled in the middle of a node access is charged that access
// and no other, and a read budget is overshot by less than one page. A context
// that cannot be canceled never stops a query. Every B+-tree node is one
// block, so both bounds are exact.
func TestGovernorBoundsOnMerge(t *testing.T) {
	_, idx := fixture(t, 20000, 99, 32)
	for _, ix := range idx {
		if st := ix.Store(); st.Blocks() != int64(st.NumPages()) {
			t.Fatalf("%d blocks over %d pages: a node is not one block", st.Blocks(), st.NumPages())
		}
	}
	f, k := ranking.SqDist([]int{0, 1}, []float64{0.4, 0.7}), 100
	clean := stats.New()
	var cleanTrail []pager.PageID
	stop := pageTrail(idx, &cleanTrail)
	want, err := TopK(idx, f, k, Options{}, clean)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if clean.TotalReads() < 20 || int64(len(cleanTrail)) != clean.TotalReads() {
		t.Fatalf("query reads %d blocks in %d accesses, want at least 20, one each", clean.TotalReads(), len(cleanTrail))
	}

	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		ctr := stats.Governed(ctx, stats.Limits{}, nil)
		var trail []pager.PageID
		stop := pageTrail(idx, &trail)
		got, err := governedTopK(idx, f, k, ctr)
		stop()
		if err != nil {
			t.Fatalf("%s context: %v", name, err)
		}
		if !slices.Equal(got, want) || !slices.Equal(trail, cleanTrail) {
			t.Fatalf("%s context: %d results over %d accesses, ungoverned %d over %d, or not the same ones",
				name, len(got), len(trail), len(want), len(cleanTrail))
		}
	}

	// Cancel from inside the fifth access to the first B+-tree: the hook runs
	// before that access is charged, the governor sees the cancellation when
	// it is.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctr := stats.Governed(ctx, stats.Limits{}, nil)
	accesses, atCancel := 0, int64(-1)
	idx[0].Store().SetFaultInjector(&pager.ScriptedFaults{OnRead: func(pager.PageID, int) {
		if accesses++; accesses == 5 {
			atCancel = ctr.TotalReads()
			cancel()
		}
	}})
	_, err = governedTopK(idx, f, k, ctr)
	idx[0].Store().SetFaultInjector(nil)
	if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if atCancel < 0 || ctr.TotalReads() != atCancel+1 || accesses != 5 {
		t.Fatalf("canceled at %d reads in access %d, stopped at %d: want the one access in flight and nothing after",
			atCancel, accesses, ctr.TotalReads())
	}

	for _, limit := range []int64{1, 3, clean.TotalReads() / 2, clean.TotalReads() - 1} {
		ctr := stats.Governed(context.Background(), stats.Limits{MaxBlockReads: limit}, nil)
		_, err := governedTopK(idx, f, k, ctr)
		if !errors.Is(err, errs.ErrBudgetExceeded) {
			t.Fatalf("limit %d: err = %v, want ErrBudgetExceeded", limit, err)
		}
		if ctr.TotalReads() != limit+1 {
			t.Fatalf("limit %d: stopped at %d reads, want the one page that crossed it", limit, ctr.TotalReads())
		}
	}
	ctr = stats.Governed(context.Background(), stats.Limits{MaxBlockReads: clean.TotalReads()}, nil)
	if _, err := governedTopK(idx, f, k, ctr); err != nil {
		t.Fatalf("a budget of exactly the query's reads tripped: %v", err)
	}
	// The aborted runs gave their scratch back mid-search; the next one starts
	// clean.
	got, err := TopK(idx, f, k, Options{}, stats.New())
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("after aborted merges: %v, %d results, want the %d of before", err, len(got), len(want))
	}
}

// TestConcurrentMergesShareNoScratch runs two different merges side by side,
// over and over: each borrows its own scratch, so each answers as it does
// alone.
func TestConcurrentMergesShareNoScratch(t *testing.T) {
	_, idx := fixture(t, 5000, 100, 16)
	type query struct {
		f    ranking.Func
		k    int
		opts Options
	}
	queries := []query{
		{ranking.SqDist([]int{0, 1}, []float64{0.2, 0.9}), 40, Options{}},
		{thresholdOnly{ranking.Linear([]int{0, 1}, []float64{2, 1})}, 7, Options{}},
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		want, err := TopK(idx, q.f, q.k, q.opts, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				got, err := TopK(idx, q.f, q.k, q.opts, stats.New())
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("k=%d beside another merge: %v, %v, alone %v", q.k, err, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
