package gridcube

import (
	"context"
	"errors"
	"testing"

	"rankcube/internal/errs"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
)

// governedTopK runs q against ctr, returning the typed abort that stopped it,
// if any.
func governedTopK(c *Cube, q Query, ctr *stats.Counters) (res []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok {
				panic(r)
			}
			err = abort
		}
	}()
	return c.TopK(q, ctr)
}

// maxPageSpan is the widest page of the cube in blocks: what one governed
// access can charge at most. A base block's or an uncompressed cell's run
// takes a block per page; a compressed cell is one payload page.
func maxPageSpan(c *Cube) int64 {
	widest := 1
	for _, cb := range c.cuboids {
		for key, ref := range cb.cells {
			if cb.compressed {
				widest = max(widest, runPages(int(ref.bytes)+len(cb.extra[key])*entryBytes))
			}
		}
	}
	return int64(widest)
}

// TestGovernorBoundsOnGridQuery holds the governor to its two bounds on the
// grid kernel: a query canceled in the middle of a page access is charged
// that access and no other, and a read budget is overshot by less than one
// page run. A context that cannot be canceled never stops a query.
func TestGovernorBoundsOnGridQuery(t *testing.T) {
	tb := testTable(20000, 2, 2, 5, 63)
	cube := Build(tb, Config{})
	q := Query{Cond: map[int]int32{0: 1}, F: ranking.Sum(0, 1), K: 1500}
	clean := stats.New()
	want, err := cube.TopK(q, clean)
	if err != nil {
		t.Fatal(err)
	}
	widest := maxPageSpan(cube)
	if clean.TotalReads() < 10*widest {
		t.Fatalf("query reads %d blocks, too few to show a bound of %d", clean.TotalReads(), widest)
	}

	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		ctr := stats.Governed(ctx, stats.Limits{}, nil)
		got, err := governedTopK(cube, q, ctr)
		if err != nil {
			t.Fatalf("%s context: %v", name, err)
		}
		sameResults(t, got, want)
		if ctr.TotalReads() != clean.TotalReads() {
			t.Fatalf("%s context: %d reads, ungoverned %d", name, ctr.TotalReads(), clean.TotalReads())
		}
	}

	// Cancel from inside the fifth access to the base block table: the hook
	// runs before that access is charged, the governor sees the cancellation
	// when it is.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctr := stats.Governed(ctx, stats.Limits{}, nil)
	accesses, atCancel := 0, int64(-1)
	cube.blocks.store.SetFaultInjector(&pager.ScriptedFaults{OnRead: func(pager.PageID, int) {
		if accesses++; accesses == 5 {
			atCancel = ctr.TotalReads()
			cancel()
		}
	}})
	_, err = governedTopK(cube, q, ctr)
	cube.blocks.store.SetFaultInjector(nil)
	if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if over := ctr.TotalReads() - atCancel; atCancel < 0 || over < 1 || over > widest {
		t.Fatalf("canceled at %d reads, stopped at %d: want the one access in flight (≤ %d blocks) and nothing after",
			atCancel, ctr.TotalReads(), widest)
	}

	for _, limit := range []int64{1, 3, clean.TotalReads() / 2, clean.TotalReads() - 1} {
		ctr := stats.Governed(context.Background(), stats.Limits{MaxBlockReads: limit}, nil)
		_, err := governedTopK(cube, q, ctr)
		if !errors.Is(err, errs.ErrBudgetExceeded) {
			t.Fatalf("limit %d: err = %v, want ErrBudgetExceeded", limit, err)
		}
		if over := ctr.TotalReads() - limit; over < 1 || over >= widest+1 {
			t.Fatalf("limit %d overshot by %d blocks, want at most one page run (%d)", limit, over, widest)
		}
	}
	ctr = stats.Governed(context.Background(), stats.Limits{MaxBlockReads: clean.TotalReads()}, nil)
	if _, err := governedTopK(cube, q, ctr); err != nil {
		t.Fatalf("a budget of exactly the query's reads tripped: %v", err)
	}
}
