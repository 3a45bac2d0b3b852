package rankcube_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rankcube"
	"rankcube/internal/pager"
)

// traceReads sums block reads over a rendered trace's whole span tree.
func traceReads(tr *rankcube.Trace) int64 {
	if tr.Root() == nil {
		return 0
	}
	return tr.Root().TotalReads()
}

// TestSpanTreeReadsReconcile is the observability acceptance invariant:
// for every canonical query entry point, the per-span block-read totals of
// the execution trace sum exactly to the query Metrics' TotalReads().
func TestSpanTreeReadsReconcile(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 4000)
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	eng := rankcube.NewSkylineEngine(sig)
	indices := []rankcube.Index{
		rankcube.BuildBTree(rel, 0),
		rankcube.BuildBTree(rel, 1),
	}
	rel2 := rankcube.GenerateRelation(1000, 3, 2, 5, rankcube.Uniform, 79)
	sig2 := rankcube.BuildSignatureCube(rel2, rankcube.SigOptions{})
	keys1 := make([]int32, rel.Len())
	keys2 := make([]int32, rel2.Len())
	for i := range keys1 {
		keys1[i] = int32(i % 50)
	}
	for i := range keys2 {
		keys2[i] = int32(i % 50)
	}
	j1 := rankcube.NewJoinRelation("r1", rel, sig, keys1, 50)
	j2 := rankcube.NewJoinRelation("r2", rel2, sig2, keys2, 50)

	f := rankcube.Sum(0, 1)
	cond := rankcube.Cond{0: 1}
	cases := []struct {
		kind string
		run  func(m *rankcube.Metrics, tr *rankcube.Trace) error
	}{
		{"grid.topk", func(m *rankcube.Metrics, tr *rankcube.Trace) error {
			_, err := grid.Query(ctx, cond, f, 10, rankcube.WithMetrics(m), rankcube.WithTrace(tr))
			return err
		}},
		{"sig.topk", func(m *rankcube.Metrics, tr *rankcube.Trace) error {
			_, err := sig.Query(ctx, cond, f, 10, rankcube.WithMetrics(m), rankcube.WithTrace(tr))
			return err
		}},
		{"merge.topk", func(m *rankcube.Metrics, tr *rankcube.Trace) error {
			_, err := rankcube.MergeQuery(ctx, rel, indices,
				rankcube.SqDist([]int{0, 1}, []float64{0.2, 0.8}), 10,
				rankcube.MergeOptions{}, rankcube.WithMetrics(m), rankcube.WithTrace(tr))
			return err
		}},
		{"join.topk", func(m *rankcube.Metrics, tr *rankcube.Trace) error {
			_, err := rankcube.JoinQuery(ctx, []rankcube.JoinPart{
				{Rel: j1, Cond: cond, F: f},
				{Rel: j2, Cond: rankcube.Cond{}, F: f},
			}, 5, rankcube.WithMetrics(m), rankcube.WithTrace(tr))
			return err
		}},
		{"skyline", func(m *rankcube.Metrics, tr *rankcube.Trace) error {
			_, _, err := eng.Query(ctx, cond, []int{0, 1}, nil,
				rankcube.WithMetrics(m), rankcube.WithTrace(tr))
			return err
		}},
		{"scan.topk", func(m *rankcube.Metrics, tr *rankcube.Trace) error {
			_, err := rankcube.TableScanQuery(ctx, rel, cond, f, 10,
				rankcube.WithMetrics(m), rankcube.WithTrace(tr))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			m := rankcube.NewMetrics()
			tr := rankcube.NewTrace()
			if err := tc.run(m, tr); err != nil {
				t.Fatal(err)
			}
			root := tr.Root()
			if root == nil {
				t.Fatal("query produced no span tree")
			}
			if root.Name != tc.kind {
				t.Fatalf("root span %q, want %q", root.Name, tc.kind)
			}
			if m.TotalReads() == 0 {
				t.Fatal("query charged no block reads — nothing to reconcile")
			}
			if got, want := traceReads(tr), m.TotalReads(); got != want {
				t.Fatalf("span tree attributes %d reads, counters say %d\n%s", got, want, tr.Render())
			}
		})
	}
}

// TestSpanTreeReconcilesThroughFallback forces a budget trip with
// FallbackOnBudget, so the trace includes the degraded re-answer, and
// checks the read attribution still reconciles across both attempts.
func TestSpanTreeReconcilesThroughFallback(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 4000)
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	m := rankcube.NewMetrics()
	tr := rankcube.NewTrace()
	res, err := sig.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10,
		rankcube.WithMetrics(m), rankcube.WithTrace(tr),
		rankcube.WithBudget(rankcube.Budget{MaxBlockReads: 1, FallbackOnBudget: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("degraded query returned nothing")
	}
	if m.Downgrades == 0 {
		t.Fatal("budget trip did not downgrade")
	}
	rendered := tr.Render()
	if !strings.Contains(rendered, "fallback") {
		t.Fatalf("trace is missing the fallback span:\n%s", rendered)
	}
	if got, want := traceReads(tr), m.TotalReads(); got != want {
		t.Fatalf("span tree attributes %d reads, counters say %d\n%s", got, want, rendered)
	}
}

// TestGovernedScannerCloseIdempotent: closing a scanner twice is harmless —
// the second Close neither records the scan again nor adds its reads to the
// Metrics again. (A scanner runs against an execution context of its own, so
// closing one cannot reach into another's.)
func TestGovernedScannerCloseIdempotent(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 2000)
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	m := rankcube.NewMetrics()
	scans := rankcube.DefaultRegistry().Histogram("latency.sig.scan")

	sc, err := sig.OpenScan(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), rankcube.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	for range 25 {
		if _, ok, err := sc.Next(); !ok || err != nil {
			t.Fatalf("scan ended early: %v", err)
		}
	}
	recorded := scans.Count()
	sc.Close()
	reads := m.TotalReads()
	sc.Close()
	if reads == 0 || m.TotalReads() != reads || scans.Count() != recorded+1 {
		t.Fatalf("two Closes: %d then %d reads, %d scans recorded, want one scan recorded once",
			reads, m.TotalReads(), scans.Count()-recorded)
	}
}

// TestScannerNextAfterCloseReadsNothing: Close lets go of the cube's shared
// lock and admission slot, so a writer may be running by the time a late Next
// comes; the scanner must not read the cube again, and ends the stream.
func TestScannerNextAfterCloseReadsNothing(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 2000)
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	m := rankcube.NewMetrics()
	sc, err := sig.OpenScan(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), rankcube.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	sc.Close()
	reads := m.TotalReads()
	for range 3 {
		if res, ok, err := sc.Next(); ok || err != nil {
			t.Fatalf("Next after Close: %v, ok=%v, err=%v; want the end of the stream", res, ok, err)
		}
	}
	if m.TotalReads() != reads {
		t.Fatalf("Next after Close charged %d reads", m.TotalReads()-reads)
	}
}

// TestRegistryRecordsEachOperationsOwnReads reuses one Metrics across a
// query, a degraded query and a progressive scan. After each, the registry's
// blockreads.<structure> counters have grown by exactly what that operation
// read — the failed attempt's and the fallback's reads alike — and not by the
// Metrics' running total; a scan's reads reach the Metrics at Close.
func TestRegistryRecordsEachOperationsOwnReads(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond, f := rankcube.Cond{0: 1}, rankcube.Sum(0, 1)
	reg := rankcube.DefaultRegistry()
	structures := []rankcube.Structure{rankcube.StructRTree, rankcube.StructSignature, rankcube.StructTable}
	m := rankcube.NewMetrics()

	// step runs one operation and holds each structure's registry counter to
	// the operation's reads, which it returns.
	step := func(name string, run func()) map[rankcube.Structure]int64 {
		t.Helper()
		regBefore, mBefore := map[rankcube.Structure]int64{}, map[rankcube.Structure]int64{}
		for _, s := range structures {
			regBefore[s], mBefore[s] = reg.Counter("blockreads."+s.String()).Value(), m.Reads(s)
		}
		run()
		own := map[rankcube.Structure]int64{}
		for _, s := range structures {
			own[s] = m.Reads(s) - mBefore[s]
			if got := reg.Counter("blockreads."+s.String()).Value() - regBefore[s]; got != own[s] {
				t.Fatalf("%s: blockreads.%s grew by %d, the operation read %d", name, s, got, own[s])
			}
		}
		return own
	}

	if own := step("query", func() {
		if _, err := cube.Query(ctx, cond, f, 10, rankcube.WithMetrics(m)); err != nil {
			t.Fatal(err)
		}
	}); own[rankcube.StructRTree] == 0 || own[rankcube.StructSignature] == 0 {
		t.Fatalf("query read %v: nothing for the next steps to tell apart", own)
	}

	st := cube.Stores()[0]
	st.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	downgrades := m.Downgrades
	if own := step("degraded query", func() {
		if _, err := cube.Query(ctx, cond, f, 10, rankcube.WithMetrics(m)); err != nil {
			t.Fatal(err)
		}
	}); own[rankcube.StructTable] == 0 || m.Downgrades != downgrades+1 {
		t.Fatalf("degraded query read %v with %d downgrades: the fallback did not run", own, m.Downgrades-downgrades)
	}
	st.SetFaultInjector(nil)
	st.ClearQuarantine()

	if own := step("scan", func() {
		sc, err := cube.OpenScan(ctx, cond, f, rankcube.WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		before := m.TotalReads()
		for range 25 {
			if _, ok, err := sc.Next(); !ok || err != nil {
				t.Fatalf("scan ended early: %v", err)
			}
		}
		if m.TotalReads() != before {
			t.Fatalf("an open scan's Metrics moved by %d reads: it is filled at Close", m.TotalReads()-before)
		}
	}); own[rankcube.StructRTree] == 0 {
		t.Fatalf("scan read %v", own)
	}
}

// TestNoopQueryAllocs pins the allocations of the boundary alone, on the
// repository benchmark's boundary.noop request — a public Query with no
// predicate and k = 0 — with and without WithMetrics: an operation's
// execution context, budget and cancellation included, is one allocation,
// and no per-query map reaches the heap. (The rest is the shared lock's
// release, the registry's metric names and the options.)
func TestNoopQueryAllocs(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 2000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	f := rankcube.Sum(0)
	m := rankcube.NewMetrics()
	if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, f, 10, rankcube.WithMetrics(m)); err != nil || m.TotalReads() == 0 {
		t.Fatalf("warm-up query: %v, %d reads", err, m.TotalReads())
	}
	const want = 6
	for name, opts := range map[string][]rankcube.Option{"bare": nil, "WithMetrics": {rankcube.WithMetrics(m)}} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := cube.Query(ctx, nil, f, 0, opts...); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%s: a no-op query makes %v allocations, want %d", name, got, want)
		}
	}
}

// TestSlowQueryLogEndToEnd arms the per-query threshold and checks the
// offender lands in the process slow-query log with its span tree.
func TestSlowQueryLogEndToEnd(t *testing.T) {
	ctx := context.Background()
	rel := buildDemo(t, 2000)
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	before := len(rankcube.SlowQueries())
	_, err := sig.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10,
		rankcube.WithSlowLogThreshold(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	entries := rankcube.SlowQueries()
	if len(entries) <= before {
		t.Fatal("slow query was not admitted to the log")
	}
	last := entries[len(entries)-1]
	if last.Kind != "sig.topk" {
		t.Fatalf("slow entry kind = %q", last.Kind)
	}
	if last.Outcome != rankcube.OutcomeOK {
		t.Fatalf("slow entry outcome = %q", last.Outcome)
	}
	if !strings.Contains(last.Tree, "sig.topk") {
		t.Fatalf("slow entry tree does not contain the root span:\n%s", last.Tree)
	}
	var sb strings.Builder
	rankcube.WriteSlowQueryLog(&sb)
	if !strings.Contains(sb.String(), "sig.topk") {
		t.Fatalf("WriteSlowQueryLog output missing the entry:\n%s", sb.String())
	}
}

// skylineIDs renders a skyline as its sorted (tuple, coordinates) set.
func skylineIDs(res []rankcube.SkylineResult) []string {
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = fmt.Sprint(r.TID, r.Coord)
	}
	sort.Strings(out)
	return out
}

func unionCond(parts ...rankcube.Cond) rankcube.Cond {
	out := rankcube.Cond{}
	for _, part := range parts {
		for d, v := range part {
			out[d] = v
		}
	}
	return out
}

func condDims(c rankcube.Cond) []int {
	var dims []int
	for d := range c {
		dims = append(dims, d)
	}
	return dims
}

// TestSkylineNavigationChains pins the metamorphic relations of OLAP
// navigation on hard (anti-correlated, 3-d) skylines, through the canonical
// entry points: drilling down twice equals the skyline of the conjunction —
// the second hop re-constructs its heap from a snapshot a drill-down wrote —
// and rolling a drill-down's predicate up again equals the query it started
// from.
func TestSkylineNavigationChains(t *testing.T) {
	ctx := context.Background()
	rel := rankcube.GenerateRelation(8000, 3, 3, 4, rankcube.AntiCorrelated, 131)
	dims := []int{0, 1, 2}
	for name, opts := range map[string]rankcube.SigOptions{
		"atomic":  {Fanout: 12},
		"cell":    {Fanout: 12, Cuboids: [][]int{{0}, {1}, {2}, {0, 1}}},
		"default": {},
	} {
		eng := rankcube.NewSkylineEngine(rankcube.BuildSignatureCube(rel, opts))
		for _, c := range []struct{ cond, a, b rankcube.Cond }{
			{rankcube.Cond{0: 1}, rankcube.Cond{1: 2}, rankcube.Cond{2: 3}},
			{rankcube.Cond{2: 0}, rankcube.Cond{0: 3}, rankcube.Cond{1: 1}},
			{rankcube.Cond{}, rankcube.Cond{1: 0}, rankcube.Cond{0: 2}},
		} {
			what := fmt.Sprintf("%s %v+%v+%v", name, c.cond, c.a, c.b)
			check := func(step string, got []rankcube.SkylineResult, err error, want []rankcube.SkylineResult) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %s: %v", what, step, err)
				}
				if g, w := skylineIDs(got), skylineIDs(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %s gives %v, want %v", what, step, g, w)
				}
			}
			fresh := func(cond rankcube.Cond) []rankcube.SkylineResult {
				t.Helper()
				res, _, err := eng.Query(ctx, cond, dims, nil)
				if err != nil {
					t.Fatalf("%s: %v: %v", what, cond, err)
				}
				return res
			}
			base, s0, err := eng.Query(ctx, c.cond, dims, nil)
			check("query", base, err, base)
			one, s1, err := eng.DrillDownQuery(ctx, s0, c.a)
			check("drill-down", one, err, fresh(unionCond(c.cond, c.a)))
			two, s2, err := eng.DrillDownQuery(ctx, s1, c.b)
			check("second drill-down", two, err, fresh(unionCond(c.cond, c.a, c.b)))
			up, _, err := eng.RollUpQuery(ctx, s1, condDims(c.a))
			check("roll-up of the drill-down", up, err, base)
			upTwo, _, err := eng.RollUpQuery(ctx, s2, condDims(c.b))
			check("roll-up of the second drill-down", upTwo, err, one)
		}
	}
}

// TestSkylineNavigationRefusesAnotherCubesSnapshot: a snapshot's SIDs, seeds
// and held pages describe the cube it was taken on. Navigating it on another
// cube is a malformed request, refused before any search and not degraded to
// the scan, which would answer a query the caller did not mean to ask there.
func TestSkylineNavigationRefusesAnotherCubesSnapshot(t *testing.T) {
	ctx := context.Background()
	a := rankcube.NewSkylineEngine(rankcube.BuildSignatureCube(rankcube.GenerateRelation(20000, 3, 3, 4, rankcube.AntiCorrelated, 7), rankcube.SigOptions{}))
	b := rankcube.NewSkylineEngine(rankcube.BuildSignatureCube(rankcube.GenerateRelation(5000, 3, 3, 4, rankcube.AntiCorrelated, 8), rankcube.SigOptions{}))
	_, snap, err := a.Query(ctx, rankcube.Cond{0: 1}, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step, navigate := range map[string]func(m *rankcube.Metrics) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error){
		"drill-down": func(m *rankcube.Metrics) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error) {
			return b.DrillDownQuery(ctx, snap, rankcube.Cond{1: 2}, rankcube.WithMetrics(m))
		},
		"roll-up": func(m *rankcube.Metrics) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error) {
			return b.RollUpQuery(ctx, snap, []int{0}, rankcube.WithMetrics(m))
		},
	} {
		m := rankcube.NewMetrics()
		res, next, err := navigate(m)
		if !errors.Is(err, rankcube.ErrInvalidArgument) || res != nil || next != nil {
			t.Fatalf("%s on another cube: %d members, snapshot %v, err %v; want ErrInvalidArgument", step, len(res), next != nil, err)
		}
		if m.Downgrades != 0 || m.TotalReads() != 0 {
			t.Fatalf("%s on another cube: %d downgrades, %d reads; want none", step, m.Downgrades, m.TotalReads())
		}
	}
}

// TestSkylineNavigationAfterWrites: a snapshot taken before a write describes
// a partition, and a skyline, that may no longer be. A deleted member must not
// seed a drill-down, nor keep pruned what only it dominated; an inserted tuple
// must be found though nothing in the snapshot leads to it. Navigation after a
// delete and after an insert equals the fresh query of the same predicate.
func TestSkylineNavigationAfterWrites(t *testing.T) {
	ctx := context.Background()
	rel := rankcube.GenerateRelation(8000, 3, 3, 4, rankcube.AntiCorrelated, 131)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 12})
	eng := rankcube.NewSkylineEngine(cube)
	dims := []int{0, 1, 2}
	from, extra := rankcube.Cond{0: 1}, rankcube.Cond{1: 2}
	ids := func(step string, res []rankcube.SkylineResult, err error) []rankcube.TID {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		out := make([]rankcube.TID, len(res))
		for i, r := range res {
			out[i] = r.TID
		}
		slices.Sort(out)
		return out
	}
	// navigate drills down and rolls up from snap, taken before the write, and
	// holds both to fresh queries after it.
	navigate := func(write string, snap *rankcube.SkylineSnapshot) (drilled []rankcube.TID) {
		t.Helper()
		mNav, mFresh := rankcube.NewMetrics(), rankcube.NewMetrics()
		res, _, err := eng.DrillDownQuery(ctx, snap, extra, rankcube.WithMetrics(mNav))
		drilled = ids("drill-down after "+write, res, err)
		res, _, err = eng.Query(ctx, unionCond(from, extra), dims, nil, rankcube.WithMetrics(mFresh))
		if want := ids("query", res, err); !slices.Equal(drilled, want) {
			t.Fatalf("drill-down after %s gives %v, the fresh query %v", write, drilled, want)
		}
		freshReads(t, "drill-down after "+write, mNav, mFresh)
		mNav, mFresh = rankcube.NewMetrics(), rankcube.NewMetrics()
		res, _, err = eng.RollUpQuery(ctx, snap, condDims(from), rankcube.WithMetrics(mNav))
		rolled := ids("roll-up after "+write, res, err)
		res, _, err = eng.Query(ctx, rankcube.Cond{}, dims, nil, rankcube.WithMetrics(mFresh))
		if want := ids("query", res, err); !slices.Equal(rolled, want) {
			t.Fatalf("roll-up after %s gives %v, the fresh query %v", write, rolled, want)
		}
		freshReads(t, "roll-up after "+write, mNav, mFresh)
		return drilled
	}

	base, snap, err := eng.Query(ctx, from, dims, nil)
	members := ids("query", base, err)
	at := slices.IndexFunc(members, func(tid rankcube.TID) bool { return rel.Matches(tid, extra) })
	if at < 0 {
		t.Fatalf("no member of %v matches %v: nothing to delete", members, extra)
	}
	if ok, err := cube.DeleteTuple(ctx, members[at]); err != nil || !ok {
		t.Fatalf("delete of %d: %v, %v", members[at], ok, err)
	}
	if drilled := navigate("a delete", snap); slices.Contains(drilled, members[at]) {
		t.Fatalf("drill-down returns the deleted tuple %d", members[at])
	}

	_, snap, err = eng.Query(ctx, from, dims, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Near the origin on the first dimension: it enters both skylines.
	tid, err := cube.InsertTuple(ctx, []int32{1, 2, 0}, []float64{0.001, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if drilled := navigate("an insert", snap); !slices.Contains(drilled, tid) {
		t.Fatalf("drill-down misses the inserted tuple %d", tid)
	}
}

// freshReads holds a navigation step from a stale snapshot to the reads of the
// fresh query of its predicate, structure by structure: it restarts with no
// page held.
func freshReads(t *testing.T, step string, nav, fresh *rankcube.Metrics) {
	t.Helper()
	for _, s := range []rankcube.Structure{rankcube.StructRTree, rankcube.StructSignature, rankcube.StructTable} {
		if nav.Reads(s) != fresh.Reads(s) {
			t.Fatalf("%s: %s reads %d, the fresh query %d", step, s, nav.Reads(s), fresh.Reads(s))
		}
	}
}

// TestLossyCubeMaintenance: a cube of bloom-filter cells takes writes like an
// exact one. Inserts add the new path's SIDs to the cells' filters (a value no
// tuple had at build time gets its filter then), deletes leave the filters
// alone, and the answers stay those of the baseline scan; nothing quarantines
// the store. With 8-entry leaves bulk-loaded full, the first inserts already
// split some.
func TestLossyCubeMaintenance(t *testing.T) {
	ctx := context.Background()
	rel, err := rankcube.NewRelation([]string{"a", "b"}, []int{5, 6}, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 2000; i++ {
		rel.Append([]int32{int32(rng.Intn(5)), int32(rng.Intn(5))}, []float64{rng.Float64(), rng.Float64()})
	}
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8, LossySignatures: true})
	f := rankcube.Linear([]int{0, 1}, []float64{1, 2})
	agree := func(when string) {
		t.Helper()
		for _, cond := range []rankcube.Cond{{0: 1}, {1: 3}, {0: 2, 1: 4}, {1: 5}, {0: 3, 1: 5}} {
			got, err := cube.Query(ctx, cond, f, 25)
			if err != nil {
				t.Fatalf("%s: query %v: %v", when, cond, err)
			}
			want, err := cube.BaselineQuery(ctx, cond, f, 25)
			if err != nil {
				t.Fatalf("%s: baseline %v: %v", when, cond, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %v returned %d results, the scan %d", when, cond, len(got), len(want))
			}
			for i := range want {
				if got[i].Score != want[i].Score {
					t.Fatalf("%s: %v result %d scores %v, the scan's %v", when, cond, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
	agree("before any write")
	for i := 0; i < 200; i++ {
		if i%3 == 2 {
			if _, err := cube.DeleteTuple(ctx, rankcube.TID(rng.Intn(2000))); err != nil {
				t.Fatalf("write %d: delete: %v", i, err)
			}
			continue
		}
		// b = 5 first appears here.
		sel := []int32{int32(rng.Intn(5)), int32(rng.Intn(6))}
		if _, err := cube.InsertTuple(ctx, sel, []float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatalf("write %d: insert: %v", i, err)
		}
	}
	agree("after 200 writes")
	if got, _ := cube.Query(ctx, rankcube.Cond{1: 5}, f, 25); len(got) == 0 {
		t.Fatal("no tuple with b = 5 was inserted: the new-cell path did not run")
	}
	for _, h := range cube.Health() {
		if h.State != "healthy" {
			t.Fatalf("store %v is %s after maintenance", h.Kind, h.State)
		}
	}
}

// modelSkyline is the skyline by definition: the rows of rel matching cond
// that no other matching row dominates (no worse on every dimension, better on
// one), as sorted tuple ids.
func modelSkyline(rel *rankcube.Relation, cond rankcube.Cond, dims []int) []rankcube.TID {
	var match []rankcube.TID
	for i := 0; i < rel.Len(); i++ {
		if rel.Matches(rankcube.TID(i), cond) {
			match = append(match, rankcube.TID(i))
		}
	}
	dominates := func(a, b []float64) bool {
		strict := false
		for _, d := range dims {
			if a[d] > b[d] {
				return false
			}
			strict = strict || a[d] < b[d]
		}
		return strict
	}
	var sky []rankcube.TID
	for _, tid := range match {
		row := rel.RankRow(tid, nil)
		if !slices.ContainsFunc(match, func(o rankcube.TID) bool { return dominates(rel.RankRow(o, nil), row) }) {
			sky = append(sky, tid)
		}
	}
	return sky
}

// TestLossySkylineVerifiesTuples: a bloom-filter cell passes tuples that do not
// match the predicate (each cell here holds thousands of SIDs in a filter capped
// at a page), so a skyline search over a lossy cube must verify a tuple against
// the relation before it lets it into the skyline — where it would also shadow
// true members. Fresh query, drill-down and roll-up against the definition.
func TestLossySkylineVerifiesTuples(t *testing.T) {
	ctx := context.Background()
	rel := rankcube.GenerateRelation(20000, 2, 2, 2, rankcube.AntiCorrelated, 137)
	eng := rankcube.NewSkylineEngine(rankcube.BuildSignatureCube(rel, rankcube.SigOptions{LossySignatures: true}))
	dims := []int{0, 1}
	check := func(step string, got []rankcube.SkylineResult, err error, cond rankcube.Cond) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		ids := make([]rankcube.TID, len(got))
		for i, r := range got {
			ids[i] = r.TID
		}
		slices.Sort(ids)
		if want := modelSkyline(rel, cond, dims); !slices.Equal(ids, want) {
			t.Fatalf("%s %v: skyline %v, by definition %v", step, cond, ids, want)
		}
	}
	m := rankcube.NewMetrics()
	base, s0, err := eng.Query(ctx, rankcube.Cond{0: 1}, dims, nil, rankcube.WithMetrics(m))
	check("query", base, err, rankcube.Cond{0: 1})
	// Every tuple let in was verified by a charged access to the relation, and
	// so was every false positive that got that far.
	if rejected := m.Reads(rankcube.StructTable) - int64(len(base)); rejected <= 0 {
		t.Fatalf("%d table reads for %d members: the filters passed no tuple they should not have, the test shows nothing",
			m.Reads(rankcube.StructTable), len(base))
	}
	one, s1, err := eng.DrillDownQuery(ctx, s0, rankcube.Cond{1: 0})
	check("drill-down", one, err, rankcube.Cond{0: 1, 1: 0})
	up, _, err := eng.RollUpQuery(ctx, s1, []int{0})
	check("roll-up", up, err, rankcube.Cond{1: 0})
}
