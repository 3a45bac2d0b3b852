package skyline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/pager"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
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

// TestPooledSkylineAfterAbort: a query, a drill-down and a roll-up that abort
// — at every read budget below what each needs, so a drill-down in its reheap
// too, before its run starts — hand back a search that holds nothing for the
// next: after each abort a clean chain answers, reads structure by structure
// and keeps in its snapshots (pruned, held) what the serial chain did.
func TestPooledSkylineAfterAbort(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 4000, S: 3, R: 3, Card: 4, Dist: table.AntiCorrelated, Seed: 97})
	// Small pages: every cell decomposes into several partials.
	e := NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 16}, PageSize: 256}))
	type step struct {
		res          []Result
		reads        stats.ReadCounts
		pruned, held []uint64
	}
	dims := []int{0, 1, 2}
	chain := func(cond, extra core.Cond, target []float64) (steps [3]step, snaps [3]*Snapshot) {
		var snap *Snapshot
		for i := range steps {
			ctr := stats.New()
			var res []Result
			var err error
			switch i {
			case 0:
				res, snap, err = e.Skyline(Query{Cond: cond, Dims: dims, Target: target}, ctr)
			case 1:
				res, snap, err = e.DrillDown(snap, extra, ctr)
			case 2:
				res, snap, err = e.RollUp(snap, cond.Dims(), ctr)
			}
			if err != nil {
				t.Fatal(err)
			}
			steps[i], snaps[i] = step{res, ctr.ReadCounts(), snap.pruned, snap.held}, snap
		}
		return steps, snaps
	}
	clean := func() [3]step {
		steps, _ := chain(core.Cond{0: 1}, core.Cond{1: 2}, nil)
		return steps
	}
	want := clean()

	_, snaps := chain(core.Cond{0: 3}, core.Cond{2: 0}, []float64{0.4, 0.5, 0.6})
	aborted := []struct {
		name string
		run  func(ctr *stats.Counters) error
	}{
		{"query", func(ctr *stats.Counters) error { _, _, err := e.Skyline(snaps[0].query, ctr); return err }},
		{"drill-down", func(ctr *stats.Counters) error { _, _, err := e.DrillDown(snaps[0], core.Cond{2: 0}, ctr); return err }},
		{"roll-up", func(ctr *stats.Counters) error { _, _, err := e.RollUp(snaps[1], []int{0}, ctr); return err }},
	}
	for _, a := range aborted {
		full := stats.New()
		if err := a.run(full); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if full.Reads(stats.StructSignature) == 0 {
			t.Fatalf("%s loads no partial", a.name)
		}
		for limit := int64(1); limit < full.TotalReads(); limit++ {
			err := governed(func() error { return a.run(stats.Governed(nil, stats.Limits{MaxBlockReads: limit}, nil)) })
			if !errors.Is(err, errs.ErrBudgetExceeded) {
				t.Fatalf("%s at %d reads: err = %v, want ErrBudgetExceeded", a.name, limit, err)
			}
			if got := clean(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the %s aborted at %d reads: chain\n%+v\nserial\n%+v", a.name, limit, got, want)
			}
		}
	}
}

// governed runs fn, returning the typed abort that stopped it, if any.
func governed(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok {
				panic(r)
			}
			err = abort
		}
	}()
	return fn()
}
