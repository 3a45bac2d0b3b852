package rankcube_test

// Fault-injection tests of the robustness layer: corruption, transient read
// faults, cancellation, budgets, and panic containment, all exercised
// through the public API. The driving invariants: no panic ever escapes the
// package, degraded answers are exactly the baseline answers, and
// partial statistics survive aborts.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankcube"
	"rankcube/internal/joinquery"
	"rankcube/internal/pager"
)

func corruptAll(stores []*rankcube.PageStore) {
	for _, s := range stores {
		s.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	}
}

func TestSignatureCorruptionDegradesToExactScan(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)
	want := apiBrute(rel, cond, f, 10)

	corruptAll(cube.Stores())
	m := rankcube.NewMetrics()
	got, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	checkScores(t, got, want)
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}

	// The store is now quarantined; the next query fails fast on
	// ErrStructureUnavailable and degrades again.
	if !cube.Stores()[0].Quarantined() {
		t.Fatal("signature store not quarantined after corruption")
	}
	m2 := rankcube.NewMetrics()
	got, err = cube.Query(context.Background(), cond, f, 10, rankcube.WithMetrics(m2))
	if err != nil {
		t.Fatalf("post-quarantine query failed: %v", err)
	}
	checkScores(t, got, want)
	if m2.Downgrades != 1 {
		t.Fatalf("post-quarantine downgrades = %d, want 1", m2.Downgrades)
	}

	// A query with nothing attached (nil context, no options) degrades the
	// same way: the boundary supplies the context and the collector.
	got, err = cube.Query(nil, cond, f, 10)
	if err != nil {
		t.Fatalf("bare query: %v", err)
	}
	checkScores(t, got, want)
}

func TestDisableFallbackSurfacesTypedErrors(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	corruptAll(cube.Stores())
	b := rankcube.Budget{DisableFallback: true}

	res, err := cube.Query(context.Background(), rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10, rankcube.WithBudget(b))
	if !errors.Is(err, rankcube.ErrPageCorrupt) {
		t.Fatalf("err = %v, want ErrPageCorrupt", err)
	}
	if res != nil {
		t.Fatalf("got %d results alongside the error", len(res))
	}
	_, err = cube.Query(context.Background(), rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10, rankcube.WithBudget(b))
	if !errors.Is(err, rankcube.ErrStructureUnavailable) {
		t.Fatalf("second query err = %v, want ErrStructureUnavailable", err)
	}

	// Repair restores service.
	cube.Stores()[0].SetFaultInjector(nil)
	if _, err := cube.Repair(context.Background()); err != nil {
		t.Fatalf("repair: %v", err)
	}
	got, err := cube.Query(context.Background(), rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10, rankcube.WithBudget(b))
	if err != nil {
		t.Fatalf("repaired cube failed: %v", err)
	}
	checkScores(t, got, apiBrute(rel, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10))
}

func TestGridCorruptionDegradesToExactScan(t *testing.T) {
	rel := buildDemo(t, 4000)
	// Compressed lists store real payloads in the cuboid pages, so checksum
	// verification has something to catch.
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{CompressLists: true})
	cond := rankcube.Cond{1: 2}
	f := rankcube.SqDist([]int{0, 1}, []float64{0.3, 0.8})
	want := apiBrute(rel, cond, f, 8)

	corruptAll(cube.Stores())
	m := rankcube.NewMetrics()
	got, err := cube.Query(context.Background(), cond, f, 8, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded grid query failed: %v", err)
	}
	checkScores(t, got, want)
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
}

func TestTransientFaultsRetryWithoutDegrading(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	// Every signature page fails once, then recovers: queries should ride
	// it out via retries with no degradation and exact answers.
	st := cube.Stores()[0]
	fails := make(map[pager.PageID]int, st.NumPages())
	for i := 0; i < st.NumPages(); i++ {
		fails[pager.PageID(i)] = 1
	}
	st.SetFaultInjector(&pager.ScriptedFaults{FailFirst: fails})

	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)
	m := rankcube.NewMetrics()
	got, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("query failed despite recoverable faults: %v", err)
	}
	checkScores(t, got, apiBrute(rel, cond, f, 10))
	if m.Retries == 0 {
		t.Fatal("no retries recorded for transient faults")
	}
	if m.Downgrades != 0 {
		t.Fatalf("downgrades = %d, want 0 (faults were recoverable)", m.Downgrades)
	}
}

func TestPersistentReadFailure(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	st := cube.Stores()[0]
	fails := make(map[pager.PageID]int, st.NumPages())
	for i := 0; i < st.NumPages(); i++ {
		fails[pager.PageID(i)] = 1 << 20 // beyond any retry limit
	}
	st.SetFaultInjector(&pager.ScriptedFaults{FailFirst: fails})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)

	_, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if !errors.Is(err, rankcube.ErrReadFailed) {
		t.Fatalf("err = %v, want ErrReadFailed", err)
	}

	m := rankcube.NewMetrics()
	got, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	checkScores(t, got, apiBrute(rel, cond, f, 10))
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
}

func TestPreCanceledContext(t *testing.T) {
	rel := buildDemo(t, 2000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := rankcube.NewMetrics()
	res, err := cube.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10, rankcube.WithMetrics(m))
	if !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should unwrap to context.Canceled", err)
	}
	if res != nil || m.TotalReads() != 0 {
		t.Fatalf("pre-canceled query did work: %d results, %d reads", len(res), m.TotalReads())
	}
	if m.Downgrades != 0 {
		t.Fatal("cancellation must never degrade")
	}
}

func TestCancellationBoundedInBlockReads(t *testing.T) {
	rel := buildDemo(t, 20000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)

	// Reference: how many blocks an unhindered query reads.
	clean := rankcube.NewMetrics()
	if _, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithMetrics(clean)); err != nil {
		t.Fatalf("clean query failed: %v", err)
	}
	if clean.TotalReads() < 20 {
		t.Skipf("workload too small to demonstrate bounded cancellation (%d reads)", clean.TotalReads())
	}

	// Cancel mid-flight at the 5th signature-store access; the governor
	// must stop the query within a bounded number of further block charges.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var accesses atomic.Int64
	cube.Stores()[0].SetFaultInjector(&pager.ScriptedFaults{
		OnRead: func(pager.PageID, int) {
			if accesses.Add(1) == 5 {
				cancel()
			}
		},
	})
	m := rankcube.NewMetrics()
	_, err := cube.Query(ctx, cond, f, 10, rankcube.WithMetrics(m))
	if !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if m.Downgrades != 0 {
		t.Fatal("cancellation must never degrade")
	}
	if m.TotalReads() >= clean.TotalReads() {
		t.Fatalf("canceled query read %d blocks, clean query %d — cancellation not bounded",
			m.TotalReads(), clean.TotalReads())
	}
}

func TestBudgetExceededKeepsPartialStats(t *testing.T) {
	rel := buildDemo(t, 8000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)
	b := rankcube.Budget{MaxBlockReads: 2, DisableFallback: true}
	m := rankcube.NewMetrics()
	res, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithBudget(b), rankcube.WithMetrics(m))
	if !errors.Is(err, rankcube.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res != nil {
		t.Fatalf("budget-tripped query returned %d results", len(res))
	}
	if m.TotalReads() <= 2 {
		t.Fatalf("partial stats lost: %d reads recorded, want > 2 (the read that tripped counts)", m.TotalReads())
	}
}

func TestFallbackOnBudget(t *testing.T) {
	rel := buildDemo(t, 8000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)
	b := rankcube.Budget{MaxBlockReads: 2, FallbackOnBudget: true}
	m := rankcube.NewMetrics()
	got, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithBudget(b), rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("budget fallback failed: %v", err)
	}
	checkScores(t, got, apiBrute(rel, cond, f, 10))
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
}

func TestCandidateBudget(t *testing.T) {
	rel := buildDemo(t, 8000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	b := rankcube.Budget{MaxCandidates: 2, DisableFallback: true}
	_, err := cube.Query(context.Background(), rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10, rankcube.WithBudget(b))
	if !errors.Is(err, rankcube.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}

	// The skyline's pending candidates are bounded the same way, on a query and
	// on a drill-down from its snapshot: a budget of the clean run's peak
	// answers, one below it fails.
	eng := rankcube.NewSkylineEngine(cube)
	dims := []int{0, 1}
	query := func(opts ...rankcube.Option) (*rankcube.SkylineSnapshot, error) {
		_, snap, err := eng.Query(bg, rankcube.Cond{0: 1}, dims, nil, opts...)
		return snap, err
	}
	snap, err := query()
	if err != nil {
		t.Fatal(err)
	}
	drill := func(opts ...rankcube.Option) (*rankcube.SkylineSnapshot, error) {
		_, next, err := eng.DrillDownQuery(bg, snap, rankcube.Cond{1: 2}, opts...)
		return next, err
	}
	for name, run := range map[string]func(...rankcube.Option) (*rankcube.SkylineSnapshot, error){"query": query, "drill-down": drill} {
		clean := rankcube.NewMetrics()
		if _, err := run(rankcube.WithMetrics(clean)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if clean.PeakHeap < 2 {
			t.Fatalf("%s: peak heap %d, too small to show a bound", name, clean.PeakHeap)
		}
		for _, limit := range []int{clean.PeakHeap, clean.PeakHeap - 1} {
			b := rankcube.Budget{MaxCandidates: limit, DisableFallback: true}
			_, err := run(rankcube.WithBudget(b))
			if want := limit < clean.PeakHeap; errors.Is(err, rankcube.ErrBudgetExceeded) != want || !want && err != nil {
				t.Errorf("%s: budget %d of a peak of %d: err = %v", name, limit, clean.PeakHeap, err)
			}
		}
	}
}

// panicFunc satisfies rankcube.Func but panics on evaluation — a stand-in
// for a buggy ad hoc ranking function.
type panicFunc struct{ rankcube.Func }

func (panicFunc) Eval([]float64) float64 { panic("buggy ranking function") }

func TestPanicContainedAsErrInternal(t *testing.T) {
	rel := buildDemo(t, 2000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	f := panicFunc{rankcube.Sum(0, 1)}
	_, err := cube.Query(context.Background(), rankcube.Cond{0: 1}, f, 5, rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if !errors.Is(err, rankcube.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	// With fallback enabled the scan re-evaluates the same broken function;
	// the second panic must be contained too (no escape), still ErrInternal.
	m := rankcube.NewMetrics()
	_, err = cube.Query(context.Background(), rankcube.Cond{0: 1}, f, 5, rankcube.WithMetrics(m))
	if !errors.Is(err, rankcube.ErrInternal) {
		t.Fatalf("fallback err = %v, want ErrInternal", err)
	}
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1 (degradation was attempted)", m.Downgrades)
	}
}

// panicInjector fails not with an error but with a raw panic, modelling a
// bug inside the storage layer itself rather than a scripted fault.
type panicInjector struct{}

func (panicInjector) ReadAttempt(pager.PageID, int) error {
	panic("injected storage-layer bug")
}

func (panicInjector) MutatePayload(_ pager.PageID, data []byte) []byte { return data }

// TestStoragePanicRecoveredAsError pins the deepest recovery path: a panic
// raised from inside a page read — several layers below the public API —
// must come back as an ErrInternal error, and with degradation enabled the
// fallback scan (which reads the relation, not the store) must still
// produce the exact answer.
func TestStoragePanicRecoveredAsError(t *testing.T) {
	rel := buildDemo(t, 3000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	for _, st := range cube.Stores() {
		st.SetFaultInjector(panicInjector{})
	}
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)
	_, err := cube.Query(context.Background(), cond, f, 5, rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if !errors.Is(err, rankcube.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	m := rankcube.NewMetrics()
	got, err := cube.Query(context.Background(), cond, f, 5, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	checkScores(t, got, apiBrute(rel, cond, f, 5))
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
}

func TestMergeFaultDegradesToTableScan(t *testing.T) {
	rel := buildDemo(t, 4000)
	indices := []rankcube.Index{
		rankcube.BuildBTree(rel, 0),
		rankcube.BuildBTree(rel, 1),
	}
	f := rankcube.Sum(0, 1)
	want, err := rankcube.TableScanQuery(context.Background(), rel, rankcube.Cond{}, f, 10)
	if err != nil {
		t.Fatalf("table scan failed: %v", err)
	}

	// Every index page permanently unreadable.
	for _, idx := range indices {
		st := idx.Store()
		fails := make(map[pager.PageID]int, st.NumPages())
		for i := 0; i < st.NumPages(); i++ {
			fails[pager.PageID(i)] = 1 << 20
		}
		st.SetFaultInjector(&pager.ScriptedFaults{FailFirst: fails})
	}

	_, err = rankcube.MergeQuery(context.Background(), rel, indices, f, 10, rankcube.MergeOptions{},
		rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if !errors.Is(err, rankcube.ErrReadFailed) {
		t.Fatalf("err = %v, want ErrReadFailed", err)
	}

	m := rankcube.NewMetrics()
	got, err := rankcube.MergeQuery(context.Background(), rel, indices, f, 10, rankcube.MergeOptions{}, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded merge failed: %v", err)
	}
	checkScores(t, got, want)
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
}

// faultJoinFixture builds two joinable relations with signature cubes; faulty
// controls whether the first cube's signature store is corrupted.
func faultJoinFixture(t *testing.T, faulty bool) []rankcube.JoinPart {
	t.Helper()
	mk := func(seed int64) (*rankcube.Relation, *rankcube.SignatureCube, []int32) {
		rel := rankcube.GenerateRelation(2000, 2, 2, 5, rankcube.Uniform, seed)
		cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
		keys := make([]int32, rel.Len())
		for i := range keys {
			keys[i] = int32(i % 50)
		}
		return rel, cube, keys
	}
	relA, cubeA, keysA := mk(11)
	relB, cubeB, keysB := mk(22)
	if faulty {
		corruptAll(cubeA.Stores())
	}
	ja := rankcube.NewJoinRelation("A", relA, cubeA, keysA, 50)
	jb := rankcube.NewJoinRelation("B", relB, cubeB, keysB, 50)
	return []rankcube.JoinPart{
		{Rel: ja, Cond: rankcube.Cond{0: 1}, F: rankcube.Sum(0)},
		{Rel: jb, Cond: rankcube.Cond{1: 2}, F: rankcube.Sum(1)},
	}
}

func TestJoinFaultDegradesToBruteForce(t *testing.T) {
	want, err := rankcube.JoinQuery(context.Background(), faultJoinFixture(t, false), 8)
	if err != nil {
		t.Fatalf("clean join failed: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no join results")
	}

	m := rankcube.NewMetrics()
	got, err := rankcube.JoinQuery(context.Background(), faultJoinFixture(t, true), 8, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded join failed: %v", err)
	}
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded join: %d results, clean join: %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Fatalf("result %d: degraded score %v, clean score %v", i, got[i].Score, want[i].Score)
		}
	}
}

// TestJoinOverDifferentKeyDomains joins relations whose join-key domains
// differ (KeyCard 10 and 20): the rank join answers it itself, exactly as the
// brute-force join does, rather than faulting into the fallback.
func TestJoinOverDifferentKeyDomains(t *testing.T) {
	var parts []rankcube.JoinPart
	for i, keyCard := range []int{10, 20} {
		rel := rankcube.GenerateRelation(2000, 2, 2, 5, rankcube.Uniform, int64(31+i))
		keys := make([]int32, rel.Len())
		for tid := range keys {
			keys[tid] = int32(tid % keyCard)
		}
		jr := rankcube.NewJoinRelation(fmt.Sprint("R", i), rel, rankcube.BuildSignatureCube(rel, rankcube.SigOptions{}), keys, keyCard)
		parts = append(parts, rankcube.JoinPart{Rel: jr, Cond: rankcube.Cond{i: 1}, F: rankcube.Sum(i)})
	}
	want, err := joinquery.BruteForce(joinquery.Query{Parts: parts, K: 8}, nil)
	if err != nil || len(want) == 0 {
		t.Fatalf("brute-force join: %d results, %v", len(want), err)
	}
	m := rankcube.NewMetrics()
	got, err := rankcube.JoinQuery(context.Background(), parts, 8,
		rankcube.WithMetrics(m), rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if err != nil {
		t.Fatalf("join over different key domains: %v", err)
	}
	if m.Downgrades != 0 {
		t.Fatalf("downgrades = %d, want 0", m.Downgrades)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, brute force %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].TIDs, want[i].TIDs) || got[i].Score != want[i].Score {
			t.Fatalf("result %d: %v %v, brute force %v %v", i, got[i].TIDs, got[i].Score, want[i].TIDs, want[i].Score)
		}
	}
}

func TestSkylineFaultDegradesAndNavigationRestarts(t *testing.T) {
	rel := buildDemo(t, 4000)
	clean := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cleanEng := rankcube.NewSkylineEngine(clean)
	cond := rankcube.Cond{0: 1}
	want, _, err := cleanEng.Query(context.Background(), cond, []int{0, 1}, nil)
	if err != nil {
		t.Fatalf("clean skyline failed: %v", err)
	}

	faulty := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	eng := rankcube.NewSkylineEngine(faulty)
	corruptAll(faulty.Stores())
	m := rankcube.NewMetrics()
	got, snap, err := eng.Query(context.Background(), cond, []int{0, 1}, nil, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("degraded skyline failed: %v", err)
	}
	if m.Downgrades != 1 {
		t.Fatalf("downgrades = %d, want 1", m.Downgrades)
	}
	if !snap.Degraded() {
		t.Fatal("fallback snapshot not marked degraded")
	}
	if !sameTIDSet(got, want) {
		t.Fatalf("degraded skyline %v != clean skyline %v", tids(got), tids(want))
	}

	// Navigating from a degraded snapshot restarts from scratch; the store
	// is quarantined, so the restart itself degrades again — still exact.
	wantDrill, _, err := cleanEng.DrillDownQuery(context.Background(), mustSnap(t, cleanEng, cond), rankcube.Cond{1: 3})
	if err != nil {
		t.Fatalf("clean drill-down failed: %v", err)
	}
	m2 := rankcube.NewMetrics()
	gotDrill, snap2, err := eng.DrillDownQuery(context.Background(), snap, rankcube.Cond{1: 3}, rankcube.WithMetrics(m2))
	if err != nil {
		t.Fatalf("degraded drill-down failed: %v", err)
	}
	if m2.Downgrades != 1 || !snap2.Degraded() {
		t.Fatalf("drill-down: downgrades=%d degraded=%v, want 1/true", m2.Downgrades, snap2.Degraded())
	}
	if !sameTIDSet(gotDrill, wantDrill) {
		t.Fatalf("degraded drill-down %v != clean %v", tids(gotDrill), tids(wantDrill))
	}
}

func mustSnap(t *testing.T, eng *rankcube.SkylineEngine, cond rankcube.Cond) *rankcube.SkylineSnapshot {
	t.Helper()
	_, snap, err := eng.Query(context.Background(), cond, []int{0, 1}, nil)
	if err != nil {
		t.Fatalf("snapshot query failed: %v", err)
	}
	return snap
}

func tids(rs []rankcube.SkylineResult) []rankcube.TID {
	out := make([]rankcube.TID, len(rs))
	for i, r := range rs {
		out[i] = r.TID
	}
	return out
}

func sameTIDSet(a, b []rankcube.SkylineResult) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[rankcube.TID]bool, len(a))
	for _, r := range a {
		set[r.TID] = true
	}
	for _, r := range b {
		if !set[r.TID] {
			return false
		}
	}
	return true
}

func TestGovernedScanner(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)

	// Clean streaming matches the baseline prefix.
	sc, err := cube.OpenScan(context.Background(), cond, f)
	if err != nil {
		t.Fatalf("ScanCtx failed: %v", err)
	}
	var streamed []rankcube.Result
	for len(streamed) < 5 {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatalf("Next failed: %v", err)
		}
		if !ok {
			break
		}
		streamed = append(streamed, r)
	}
	sc.Close()
	checkScores(t, streamed, apiBrute(rel, cond, f, 5))

	// Mid-stream cancellation surfaces as a typed error, not a panic.
	ctx, cancel := context.WithCancel(context.Background())
	m := rankcube.NewMetrics()
	sc, err = cube.OpenScan(ctx, cond, f, rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("ScanCtx failed: %v", err)
	}
	defer sc.Close()
	if _, ok, err := sc.Next(); err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	_, ok, err := sc.Next()
	if ok || !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("post-cancel Next: ok=%v err=%v, want canceled stream end", ok, err)
	}

	// A corrupt store fails the stream with a typed error.
	corruptAll(cube.Stores())
	sc2, err := cube.OpenScan(context.Background(), cond, f)
	if err == nil {
		defer sc2.Close()
		for i := 0; i < rel.Len()+1; i++ {
			_, ok, nerr := sc2.Next()
			if nerr != nil {
				err = nerr
				break
			}
			if !ok {
				break
			}
		}
	}
	if !errors.Is(err, rankcube.ErrPageCorrupt) && !errors.Is(err, rankcube.ErrStructureUnavailable) {
		t.Fatalf("corrupt scan err = %v, want a storage fault", err)
	}
}

func TestConcurrentQueriesUnderCorruption(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1}
	f := rankcube.Sum(0, 1)
	want := apiBrute(rel, cond, f, 10)
	corruptAll(cube.Stores())

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := rankcube.NewMetrics()
			got, err := cube.Query(context.Background(), cond, f, 10, rankcube.WithMetrics(m))
			if err != nil {
				errCh <- err
				return
			}
			if len(got) != len(want) || m.Downgrades != 1 {
				errCh <- errors.New("degraded concurrent query returned wrong shape")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent query: %v", err)
	}
}

func TestDeadlineExpiresAsCanceled(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := cube.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10)
	if !errors.Is(err, rankcube.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestEveryBoundaryExitReleases drives one request out of each exit the
// boundary has — begin and finish, batch and streaming — and checks that it
// left nothing held: the gate has no slot taken and a write, which needs the
// cube's lock exclusively, completes. lockorder checks only that the release
// closure is consumed somewhere; this is the check that every path reaches it.
func TestEveryBoundaryExitReleases(t *testing.T) {
	rel := buildDemo(t, 2000)
	cond, f := rankcube.Cond{0: 1}, rankcube.Sum(0, 1)
	strict := rankcube.WithBudget(rankcube.Budget{DisableFallback: true})
	for _, tc := range []struct {
		name string
		want error // nil: the request succeeds
		exit func(cube *rankcube.SignatureCube) error
	}{
		{"success", nil, func(cube *rankcube.SignatureCube) error {
			_, err := cube.Query(context.Background(), cond, f, 5)
			return err
		}},
		{"degraded fallback", nil, func(cube *rankcube.SignatureCube) error {
			corruptAll(cube.Stores())
			m := rankcube.NewMetrics()
			_, err := cube.Query(context.Background(), cond, f, 5, rankcube.WithMetrics(m))
			if err == nil && m.Downgrades != 1 {
				err = fmt.Errorf("%d downgrades, want 1", m.Downgrades)
			}
			return err
		}},
		{"storage fault without fallback", rankcube.ErrPageCorrupt, func(cube *rankcube.SignatureCube) error {
			corruptAll(cube.Stores())
			_, err := cube.Query(context.Background(), cond, f, 5, strict)
			return err
		}},
		{"budget trip", rankcube.ErrBudgetExceeded, func(cube *rankcube.SignatureCube) error {
			_, err := cube.Query(context.Background(), cond, f, 5,
				rankcube.WithBudget(rankcube.Budget{MaxBlockReads: 1, DisableFallback: true}))
			return err
		}},
		{"pre-canceled context", rankcube.ErrCanceled, func(cube *rankcube.SignatureCube) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := cube.Query(ctx, cond, f, 5)
			return err
		}},
		{"contained engine panic", rankcube.ErrInternal, func(cube *rankcube.SignatureCube) error {
			_, err := cube.Query(context.Background(), cond, panicFunc{f}, 5, strict)
			return err
		}},
		{"admission rejection", rankcube.ErrOverloaded, func(cube *rankcube.SignatureCube) error {
			occupier, err := cube.OpenScan(context.Background(), cond, f)
			if err != nil {
				return err
			}
			defer occupier.Close()
			_, err = cube.Query(context.Background(), cond, f, 5)
			return err
		}},
		{"OpenScan failing at open", rankcube.ErrInvalidArgument, func(cube *rankcube.SignatureCube) error {
			// No cuboid covers dimension 7: the scan is refused after begin.
			sc, err := cube.OpenScan(context.Background(), rankcube.Cond{7: 1}, f)
			if sc != nil {
				sc.Close()
				return errors.New("OpenScan opened a scan over an uncovered dimension")
			}
			return err
		}},
		{"Close after Next failed", rankcube.ErrCanceled, func(cube *rankcube.SignatureCube) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sc, err := cube.OpenScan(ctx, cond, f)
			if err != nil {
				return err
			}
			defer sc.Close()
			if _, _, err := sc.Next(); err != nil {
				return err
			}
			cancel()
			_, _, err = sc.Next()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
			cube.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: 1})
			stores := cube.Stores()
			err := tc.exit(cube)
			if !errors.Is(err, tc.want) {
				t.Fatalf("exit: err %v, want %v", err, tc.want)
			}
			// Readmit a store the exit quarantined without Repair, which
			// would wait on the very lock and admission slot checked below.
			for _, st := range stores {
				st.SetFaultInjector(nil)
				st.EnterHalfOpen()
				st.CloseCircuit()
			}
			if n := cube.AdmissionStats().InFlight; n != 0 {
				t.Fatalf("%d admission slots still held", n)
			}
			done := make(chan error, 1)
			go func() {
				_, err := cube.InsertTuple(context.Background(), []int32{1, 1, 1}, []float64{0.5, 0.5})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("insert after the exit: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("insert after the exit still blocked after 5 s: the cube's lock is held")
			}
		})
	}
}
