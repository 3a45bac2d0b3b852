package rankcube_test

import (
	"context"
	"errors"
	"testing"

	"rankcube"
	"rankcube/internal/pager"
)

// TestSignatureRepairLifecycle walks the full quarantine lifecycle:
// corruption trips the store, queries degrade, Repair rebuilds and probes
// half-open, the store returns to full service, and answers reconcile with
// the baseline again.
func TestSignatureRepairLifecycle(t *testing.T) {
	rel := rankcube.GenerateRelation(1500, 2, 2, 4, rankcube.Uniform, 9)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
	ctx := context.Background()
	f := rankcube.Sum(0, 1)
	cond := rankcube.Cond{0: 1}

	want, err := cube.BaselineQuery(ctx, cond, f, 10)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Mutate the cube first so the rebuild must reflect maintained state,
	// not the build-time snapshot.
	if _, err := cube.InsertTuple(ctx, []int32{1, 2}, []float64{0.001, 0.001}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := cube.DeleteTuple(ctx, rankcube.TID(3)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	want, err = cube.BaselineQuery(ctx, cond, f, 10)
	if err != nil {
		t.Fatalf("baseline after maintenance: %v", err)
	}

	// Corrupt the whole signature store: the next cube query trips
	// quarantine and degrades to the scan.
	st := cube.Stores()[0]
	st.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	got, err := cube.Query(ctx, cond, f, 10)
	if err != nil || !scoresEqual(got, want) {
		t.Fatalf("degraded query: err=%v got=%v want=%v", err, got, want)
	}
	if st.State() != pager.StateQuarantined {
		t.Fatalf("state after corruption = %v, want quarantined", st.State())
	}

	// Repair with the injector still corrupting everything: the rebuild
	// cannot verify, so the store must stay out of full service.
	if _, err := cube.Repair(ctx); err != nil && !rankcube.RepairError(err) {
		t.Fatalf("repair under persistent corruption: unexpected err class %v", err)
	}
	if st.State() == pager.StateHealthy {
		t.Fatal("store returned to service while the fault persists")
	}

	// Clear the fault (the rot was transient) and repair again: verify,
	// rebuild, half-open probe, re-admission.
	st.SetFaultInjector(nil)
	reports, err := cube.Repair(ctx)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(reports) != 1 || !reports[0].Rebuilt || !reports[0].Probed || !reports[0].Readmitted {
		t.Fatalf("repair report = %+v, want rebuilt+probed+readmitted", reports)
	}
	if st.State() != pager.StateHealthy {
		t.Fatalf("state after repair = %v, want healthy", st.State())
	}

	// Full service: the cube path answers (no degradation) and reconciles.
	got, err = cube.Query(ctx, cond, f, 10, rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if err != nil {
		t.Fatalf("query after repair: %v", err)
	}
	if !scoresEqual(got, want) {
		t.Fatalf("post-repair mismatch: got %v want %v", got, want)
	}
}

// TestGridRepairLifecycle exercises repair on a compressed grid cube, the
// configuration whose cuboid stores hold real payloads.
func TestGridRepairLifecycle(t *testing.T) {
	rel := rankcube.GenerateRelation(1200, 2, 2, 4, rankcube.Uniform, 13)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 100, CompressLists: true})
	ctx := context.Background()
	f := rankcube.Sum(0, 1)
	cond := rankcube.Cond{0: 2}

	want, err := cube.BaselineQuery(ctx, cond, f, 10)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Corrupt every cuboid store (the block table holds no payloads), so
	// whichever cuboid the planner reads trips its quarantine.
	for _, st := range cube.Stores() {
		st.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	}
	if _, err := cube.Query(ctx, cond, f, 10); err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	var st *rankcube.PageStore
	for _, cand := range cube.Stores() {
		if cand.State() == pager.StateQuarantined {
			st = cand
		}
	}
	if st == nil {
		t.Fatal("no store quarantined after corrupted query")
	}

	for _, cand := range cube.Stores() {
		cand.SetFaultInjector(nil)
	}
	reports, err := cube.Repair(ctx)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	var repaired *rankcube.StoreRepair
	for i := range reports {
		if reports[i].Rebuilt {
			repaired = &reports[i]
		}
	}
	if repaired == nil || !repaired.Probed || !repaired.Readmitted {
		t.Fatalf("no store was rebuilt+readmitted: %+v", reports)
	}
	if st.State() != pager.StateHealthy {
		t.Fatalf("state after repair = %v, want healthy", st.State())
	}

	got, err := cube.Query(ctx, cond, f, 10, rankcube.WithBudget(rankcube.Budget{DisableFallback: true}))
	if err != nil || !scoresEqual(got, want) {
		t.Fatalf("post-repair query: err=%v got=%v want=%v", err, got, want)
	}
}

// TestHealthReportsLifecycle checks Health strings track the state machine.
func TestHealthReportsLifecycle(t *testing.T) {
	rel := rankcube.GenerateRelation(600, 2, 2, 4, rankcube.Uniform, 17)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
	ctx := context.Background()

	h := cube.Health()
	if len(h) != 1 || h[0].State != "healthy" {
		t.Fatalf("initial health = %+v", h)
	}

	st := cube.Stores()[0]
	st.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 5); err != nil {
		t.Fatalf("query: %v", err)
	}
	if h := cube.Health(); h[0].State != "quarantined" {
		t.Fatalf("health after corruption = %+v", h)
	}

	st.SetFaultInjector(nil)
	if _, err := cube.Repair(ctx); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if h := cube.Health(); h[0].State != "healthy" {
		t.Fatalf("health after repair = %+v", h)
	}
	if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 5,
		rankcube.WithBudget(rankcube.Budget{DisableFallback: true})); err != nil {
		t.Fatalf("query after repair: %v", err)
	}

	if err := errors.Join(); err != nil {
		t.Fatal(err)
	}
}
