package rankcube_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"rankcube"
	"rankcube/internal/pager"
)

// The grid cube's queries run on execution state they take from a pool and
// hand back when they end. These tests hold a query's answer and reads to
// what it gives on its own however the queries before it ended, and whoever
// runs beside it.

type gridRequest struct {
	cond rankcube.Cond
	f    rankcube.Func
	k    int
}

func gridRequests() []gridRequest {
	funcs := []rankcube.Func{
		rankcube.Sum(0, 1),
		rankcube.SqDist([]int{0, 1}, []float64{0.4, 0.6}),
		rankcube.General(rankcube.Sqr(rankcube.Sub(rankcube.Var(0), rankcube.Var(1)))),
	}
	conds := []rankcube.Cond{{}, {0: 1}, {1: 3}, {0: 2, 1: 0}, {0: 9}}
	var out []gridRequest
	for i := 0; i < 30; i++ {
		out = append(out, gridRequest{conds[i%len(conds)], funcs[i%len(funcs)], 1 + i*7%40})
	}
	return out
}

// answer runs r alone and returns its results and reads.
func (r gridRequest) answer(t *testing.T, cube *rankcube.GridCube) ([]rankcube.Result, int64) {
	t.Helper()
	m := rankcube.NewMetrics()
	res, err := cube.Query(context.Background(), r.cond, r.f, r.k,
		rankcube.WithMetrics(m), rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if err != nil {
		t.Errorf("%v k=%d: %v", r.cond, r.k, err)
	}
	return res, m.TotalReads()
}

// TestGridQueriesShareNoState: eight goroutines query one cube at once, and
// every answer, and its reads, equals what the same request gave alone.
func TestGridQueriesShareNoState(t *testing.T) {
	rel := rankcube.GenerateRelation(4000, 2, 2, 4, rankcube.Uniform, 51)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 80, FragmentSize: 1})
	reqs := gridRequests()
	want, wantReads := make([][]rankcube.Result, len(reqs)), make([]int64, len(reqs))
	for i, r := range reqs {
		want[i], wantReads[i] = r.answer(t, cube)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 3*len(reqs); n++ {
				i := (n*7 + w) % len(reqs)
				if got, reads := reqs[i].answer(t, cube); !slices.Equal(got, want[i]) || reads != wantReads[i] {
					t.Errorf("request %d beside others: %v (%d reads), alone %v (%d reads)", i, got, reads, want[i], wantReads[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGridQueryAfterAbort: a query stopped mid-search — by its read budget, by
// its context canceled from inside a page access, by a corrupt page that
// quarantines a store (answered again once Repair has rebuilt it) — is
// followed by requests that answer and read as they do alone.
func TestGridQueryAfterAbort(t *testing.T) {
	rel := rankcube.GenerateRelation(20000, 2, 2, 4, rankcube.Uniform, 53)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 800, CompressLists: true})
	ctx := context.Background()
	reqs := gridRequests()
	want, wantReads := make([][]rankcube.Result, len(reqs)), make([]int64, len(reqs))
	for i, r := range reqs {
		want[i], wantReads[i] = r.answer(t, cube)
	}
	checkAll := func(after string) {
		t.Helper()
		for i, r := range reqs {
			if got, reads := r.answer(t, cube); !slices.Equal(got, want[i]) || reads != wantReads[i] {
				t.Fatalf("request %d after %s: %v (%d reads), alone %v (%d reads)", i, after, got, reads, want[i], wantReads[i])
			}
		}
	}
	wide := gridRequest{rankcube.Cond{1: 2}, rankcube.Sum(0, 1), 300}
	strict := rankcube.WithBudget(rankcube.Budget{DisableFallback: true})

	for _, limit := range []int64{1, 4, 9} {
		_, err := cube.Query(ctx, wide.cond, wide.f, wide.k, strict,
			rankcube.WithBudget(rankcube.Budget{MaxBlockReads: limit, DisableFallback: true}))
		if !errors.Is(err, rankcube.ErrBudgetExceeded) {
			t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", limit, err)
		}
		checkAll("a budget trip")
	}

	blocks := cube.Stores()[len(cube.Stores())-1]
	cctx, cancel := context.WithCancel(ctx)
	accesses := 0
	blocks.SetFaultInjector(&pager.ScriptedFaults{OnRead: func(pager.PageID, int) {
		if accesses++; accesses == 3 {
			cancel()
		}
	}})
	_, err := cube.Query(cctx, wide.cond, wide.f, wide.k, strict)
	blocks.SetFaultInjector(nil)
	cancel()
	if !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("canceled query: err = %v, want ErrCanceled", err)
	}
	checkAll("a cancellation")

	for _, st := range cube.Stores() {
		st.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	}
	if _, err := cube.Query(ctx, wide.cond, wide.f, wide.k, strict); err == nil {
		t.Fatal("a query over corrupt cells succeeded without fallback")
	}
	quarantined := 0
	for _, st := range cube.Stores() {
		st.SetFaultInjector(nil)
		if st.State() == pager.StateQuarantined {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatal("no store quarantined by the corrupt query")
	}
	if _, err := cube.Repair(ctx); err != nil {
		t.Fatalf("repair: %v", err)
	}
	checkAll("a quarantine and its repair")
}

// TestGridQueryAcrossRepartitions: queries before and after a repartition
// that grows the number of base blocks (3000 rows to 9000, 8 bins a dimension
// to 13), and one that shrinks it (to 1000 rows, 5 bins), answer as the
// cube's sequential scan does.
func TestGridQueryAcrossRepartitions(t *testing.T) {
	rel := rankcube.GenerateRelation(3000, 2, 2, 4, rankcube.Uniform, 55)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 60})
	ctx := context.Background()
	check := func(what string) {
		t.Helper()
		for _, r := range gridRequests() {
			got, err := cube.Query(ctx, r.cond, r.f, r.k)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			base, err := cube.BaselineQuery(ctx, r.cond, r.f, r.k)
			if err != nil {
				t.Fatalf("%s baseline: %v", what, err)
			}
			if !slices.Equal(got, base) {
				t.Fatalf("%s, %v k=%d: %v, baseline %v", what, r.cond, r.k, got, base)
			}
		}
	}
	check("built")
	for i := 0; i < 6000; i++ {
		sel := []int32{int32(i % 4), int32(i / 4 % 4)}
		if _, err := cube.InsertTuple(ctx, sel, []float64{float64(i%97) / 97, float64(i%89) / 89}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cube.Repartition(ctx); err != nil {
		t.Fatal(err)
	}
	check("grown")
	for tid := 0; tid < 8000; tid++ {
		if _, err := cube.DeleteTuple(ctx, rankcube.TID(tid)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cube.Repartition(ctx); err != nil {
		t.Fatal(err)
	}
	check("shrunk")
}
