package skyline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/pager"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// governedSkyline runs q against ctr, returning the typed abort that
// stopped it, if any.
func governedSkyline(e *Engine, q Query, ctr *stats.Counters) (res []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok {
				panic(r)
			}
			err = abort
		}
	}()
	res, _, err = e.Skyline(q, ctr)
	return res, err
}

// TestGovernorBoundsOnSkyline holds the governor to its two bounds on the
// skyline search: a query canceled in the middle of a node access is charged
// that access and nothing after, and a read budget is overshot by less than
// one page. A context that cannot be canceled never stops a query. Every
// R-tree node and every partial signature of the fixture is one block, so
// both bounds are exact.
func TestGovernorBoundsOnSkyline(t *testing.T) {
	_, e := buildEngine(20000, 2, 4, table.AntiCorrelated, 171)
	tree, sigs := e.cube.Tree().Store(), e.cube.Store()
	for _, st := range []*pager.Store{tree, sigs} {
		if st.Blocks() != int64(st.NumPages()) {
			t.Fatalf("%s: %d blocks over %d pages: a page is not one block", st.Kind(), st.Blocks(), st.NumPages())
		}
	}
	q := Query{Cond: core.Cond{0: 1}, Dims: []int{0, 1, 2}}
	clean := stats.New()
	want, _, err := e.Skyline(q, clean)
	if err != nil {
		t.Fatal(err)
	}
	if clean.TotalReads() < 20 {
		t.Fatalf("query reads %d blocks, too few to show a bound", clean.TotalReads())
	}

	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		ctr := stats.Governed(ctx, stats.Limits{}, nil)
		got, err := governedSkyline(e, q, ctr)
		if err != nil {
			t.Fatalf("%s context: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || ctr.TotalReads() != clean.TotalReads() {
			t.Fatalf("%s context: %d members and %d reads, ungoverned %d and %d",
				name, len(got), ctr.TotalReads(), len(want), clean.TotalReads())
		}
	}

	// Cancel from inside the fifth node access: the hook runs before that
	// access is charged, the governor sees the cancellation when it is.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctr := stats.Governed(ctx, stats.Limits{}, nil)
	accesses, atCancel := 0, int64(-1)
	tree.SetFaultInjector(&pager.ScriptedFaults{OnRead: func(pager.PageID, int) {
		if accesses++; accesses == 5 {
			atCancel = ctr.TotalReads()
			cancel()
		}
	}})
	_, err = governedSkyline(e, q, ctr)
	tree.SetFaultInjector(nil)
	if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if over := ctr.TotalReads() - atCancel; atCancel < 0 || over != 1 {
		t.Fatalf("canceled at %d reads, stopped at %d: want the one access in flight and nothing after", atCancel, ctr.TotalReads())
	}

	for _, limit := range []int64{1, 3, clean.TotalReads() / 2, clean.TotalReads() - 1} {
		ctr := stats.Governed(context.Background(), stats.Limits{MaxBlockReads: limit}, nil)
		_, err := governedSkyline(e, q, ctr)
		if !errors.Is(err, errs.ErrBudgetExceeded) {
			t.Fatalf("limit %d: err = %v, want ErrBudgetExceeded", limit, err)
		}
		if over := ctr.TotalReads() - limit; over != 1 {
			t.Fatalf("limit %d overshot by %d blocks, want the one page that tripped it", limit, over)
		}
	}
	ctr = stats.Governed(context.Background(), stats.Limits{MaxBlockReads: clean.TotalReads()}, nil)
	if _, err := governedSkyline(e, q, ctr); err != nil {
		t.Fatalf("a budget of exactly the query's reads tripped: %v", err)
	}
}
