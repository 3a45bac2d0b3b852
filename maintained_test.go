package rankcube_test

// Tests of the one boundary over maintained cubes: every engine's answer
// against its baseline scan and its forced fallback after inserts and
// deletes, rows the relation refuses, grid maintenance through runQuery, and
// the governor's bounds on the progressive signature scan and on the
// sequential scan every fallback runs.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rankcube"
	"rankcube/internal/joinquery"
	"rankcube/internal/pager"
)

// seqPages is what one sequential pass over n rows of rel's schema charges:
// the pages of a heap file of whole rows at the default 4 KB page size.
func seqPages(rel *rankcube.Relation, n int) int64 {
	rows := pager.PageSize / rel.RowBytes()
	return int64((n + rows - 1) / rows)
}

// joinKeys spreads n tuples over card join keys.
func joinKeys(n, card int) []int32 {
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i % card)
	}
	return keys
}

// TestJoinSkipsDeletedTuplesInMaterializedParts deletes the top answer's
// tuple from a selective part (about 7 matches) and joins again: the answer
// must not bring the deleted tuple back, as a table scan of the part that
// did not ask the cube which tuples are alive once did.
func TestJoinSkipsDeletedTuplesInMaterializedParts(t *testing.T) {
	relA := rankcube.GenerateRelation(3000, 2, 2, 20, rankcube.Uniform, 5)
	relB := rankcube.GenerateRelation(3000, 2, 2, 20, rankcube.Uniform, 6)
	cubeA := rankcube.BuildSignatureCube(relA, rankcube.SigOptions{})
	cubeB := rankcube.BuildSignatureCube(relB, rankcube.SigOptions{})
	parts := []rankcube.JoinPart{
		{Rel: rankcube.NewJoinRelation("A", relA, cubeA, joinKeys(3000, 50), 50), Cond: rankcube.Cond{0: 3, 1: 4}, F: rankcube.Sum(0, 1)},
		{Rel: rankcube.NewJoinRelation("B", relB, cubeB, joinKeys(3000, 50), 50), Cond: rankcube.Cond{}, F: rankcube.Sum(0, 1)},
	}
	first, err := rankcube.JoinQuery(bg, parts, 1)
	if err != nil || len(first) != 1 {
		t.Fatalf("join: %v %v", first, err)
	}
	gone := first[0].TIDs[0]
	if ok, err := cubeA.DeleteTuple(bg, gone); err != nil || !ok {
		t.Fatalf("delete of %d: ok=%v err=%v", gone, ok, err)
	}
	got, err := rankcube.JoinQuery(bg, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := joinquery.BruteForce(joinquery.Query{Parts: parts, K: 1}, rankcube.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 1 && got[0].TIDs[0] == gone {
		t.Fatalf("join still answers with deleted tuple %d: %v", gone, got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join after delete %v, brute force %v", got, want)
	}
}

// maintainedCube is what the row and boundary tests need of either cube.
type maintainedCube interface {
	InsertTuple(ctx context.Context, sel []int32, rank []float64, opts ...rankcube.Option) (rankcube.TID, error)
	Query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error)
	BaselineQuery(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error)
	Health() []rankcube.StoreHealth
}

// TestRejectedRowLeavesRelationIntact is the regression test of the torn
// Append: a row whose second selection value is out of range used to leave
// its first value behind in the column, so the next accepted row was stored
// one slot off for good — and the refusal came back as ErrInternal from the
// signature cube and as a raw panic from the grid cube.
func TestRejectedRowLeavesRelationIntact(t *testing.T) {
	for _, name := range []string{"grid", "signature"} {
		t.Run(name, func(t *testing.T) {
			rel := rankcube.GenerateRelation(500, 2, 2, 5, rankcube.Uniform, 12)
			var cube maintainedCube = rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 50})
			if name == "signature" {
				cube = rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
			}
			for _, bad := range []struct {
				sel  []int32
				rank []float64
			}{
				{[]int32{1, 99}, []float64{0.5, 0.5}},
				{[]int32{1, -1}, []float64{0.5, 0.5}},
				{[]int32{1}, []float64{0.5, 0.5}},
				{[]int32{1, 2}, []float64{0.5}},
				{[]int32{1, 2}, []float64{math.NaN(), 0.5}},
				{[]int32{1, 2}, []float64{0.5, math.Inf(1)}},
				{[]int32{1, 2}, []float64{math.Inf(-1), 0.5}},
			} {
				m := rankcube.NewMetrics()
				if _, err := cube.InsertTuple(bg, bad.sel, bad.rank, rankcube.WithMetrics(m)); !errors.Is(err, rankcube.ErrInvalidArgument) {
					t.Fatalf("insert of %v/%v: err = %v, want ErrInvalidArgument", bad.sel, bad.rank, err)
				}
				if rel.Len() != 500 || m.Downgrades != 0 {
					t.Fatalf("refused row changed the relation (Len %d) or degraded (%d)", rel.Len(), m.Downgrades)
				}
			}
			for _, h := range cube.Health() {
				if h.State != "healthy" {
					t.Fatalf("a refused row quarantined %s: %s", h.Kind, h.State)
				}
			}
			tid, err := cube.InsertTuple(bg, []int32{3, 2}, []float64{0, 0})
			if err != nil || int(tid) != 500 || rel.Len() != 501 {
				t.Fatalf("next insert: tid %d, Len %d, err %v", tid, rel.Len(), err)
			}
			if rel.Sel(tid, 0) != 3 || rel.Sel(tid, 1) != 2 {
				t.Fatalf("next insert stored (%d, %d), want (3, 2)", rel.Sel(tid, 0), rel.Sel(tid, 1))
			}
			cond, f := rankcube.Cond{0: 3, 1: 2}, rankcube.Sum(0, 1)
			want := []rankcube.Result{{TID: tid, Score: 0}}
			if got, err := cube.Query(bg, cond, f, 1); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("query after the insert: %v %v, want %v", got, err, want)
			}
			if got, err := cube.BaselineQuery(bg, cond, f, 1); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("baseline after the insert: %v %v, want %v", got, err, want)
			}
		})
	}
}

// TestRanksAreFinite: ranks are finite reals. A NaN row once went in, and then
// a cube's Query and its BaselineQuery — the path it degrades to — disagreed
// at k = 3 on the row's cell for Sum and SqDist, the scan answering the NaN
// tuple third. The row is refused now, and the two agree; a skyline target
// that is not finite is refused too.
func TestRanksAreFinite(t *testing.T) {
	rel := rankcube.GenerateRelation(3000, 2, 2, 5, rankcube.Uniform, 13)
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	cond := rankcube.Cond{0: 1, 1: 2}
	for _, cube := range []maintainedCube{grid, sig} {
		if _, err := cube.InsertTuple(bg, []int32{1, 2}, []float64{math.NaN(), 0.1}); !errors.Is(err, rankcube.ErrInvalidArgument) {
			t.Fatalf("%T: a NaN rank went in: %v", cube, err)
		}
		for _, f := range []rankcube.Func{rankcube.Sum(0, 1), rankcube.SqDist([]int{0, 1}, []float64{0.5, 0.5})} {
			got, err := cube.Query(bg, cond, f, 3)
			want, berr := cube.BaselineQuery(bg, cond, f, 3)
			if err != nil || berr != nil || len(want) != 3 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%T %v: query %v (%v), baseline %v (%v)", cube, f, got, err, want, berr)
			}
		}
	}
	if rel.Len() != 3000 {
		t.Fatalf("refused rows changed the relation: Len %d", rel.Len())
	}
	eng := rankcube.NewSkylineEngine(sig)
	for _, target := range [][]float64{{math.NaN(), 0.5}, {0.5, math.Inf(1)}, {math.Inf(-1), 0.5}} {
		if _, _, err := eng.Query(bg, cond, []int{0, 1}, target); !errors.Is(err, rankcube.ErrInvalidArgument) {
			t.Fatalf("skyline target %v: err = %v, want ErrInvalidArgument", target, err)
		}
	}
}

// churn applies a seeded mix of inserts and deletes through the public
// maintenance entry points and returns how many rows the relation holds and
// how many of them are deleted.
func churn(t *testing.T, seed int64, rows, card, inserts, deletes int,
	insert func(sel []int32, rank []float64) (rankcube.TID, error),
	del func(tid rankcube.TID) (bool, error)) (held, dead int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	held = rows
	for i := 0; i < inserts; i++ {
		if _, err := insert([]int32{int32(rng.Intn(card)), int32(rng.Intn(card))}, []float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		held++
	}
	for i := 0; i < deletes; i++ {
		ok, err := del(rankcube.TID(rng.Intn(held)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			dead++
		}
	}
	return held, dead
}

// degraded runs one query against corrupted stores and checks that it was
// answered by its fallback: one downgrade, and exactly pages table reads.
func degraded[T any](t *testing.T, what string, pages int64, run func(...rankcube.Option) (T, error)) T {
	t.Helper()
	m := rankcube.NewMetrics()
	out, err := run(rankcube.WithMetrics(m))
	if err != nil {
		t.Fatalf("%s: forced fallback: %v", what, err)
	}
	if m.Downgrades != 1 || m.Reads(rankcube.StructTable) != pages {
		t.Fatalf("%s: forced fallback made %d downgrades and charged %d table reads, want 1 and %d",
			what, m.Downgrades, m.Reads(rankcube.StructTable), pages)
	}
	return out
}

// TestMaintainedCubesAgreeWithBaselineAndFallback is the differential over
// maintained cubes: after inserts and deletes — for the grid cube with
// tombstones pending and again after Repartition — every engine's Query, its
// baseline scan and its forced fallback (every store scripted corrupt) return
// the same tuples in the same order, and every fallback charges one
// sequential pass, ceil(Len·RowBytes/pageSize) table reads, once.
func TestMaintainedCubesAgreeWithBaselineAndFallback(t *testing.T) {
	const rows, card = 3000, 4
	funcs := []rankcube.Func{
		rankcube.Sum(0, 1),
		rankcube.SqDist([]int{0, 1}, []float64{0.3, 0.7}),
		rankcube.General(rankcube.Sqr(rankcube.Sub(rankcube.Var(0), rankcube.Sqr(rankcube.Var(1))))),
	}
	conds := []rankcube.Cond{{0: 1}, {1: 3}, {0: 2, 1: 0}, {}}

	// topk compares Query ≡ BaselineQuery, corrupts, compares the fallback.
	topk := func(t *testing.T, cube maintainedCube, stores []*rankcube.PageStore, pages int64) {
		t.Helper()
		type key struct{ c, f int }
		clean := map[key][]rankcube.Result{}
		for ci, cond := range conds {
			for fi, f := range funcs {
				got, err := cube.Query(bg, cond, f, 12)
				if err != nil {
					t.Fatal(err)
				}
				m := rankcube.NewMetrics()
				want, err := cube.BaselineQuery(bg, cond, f, 12, rankcube.WithMetrics(m))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || len(got) == 0 {
					t.Fatalf("cond %v func %d: cube %v, baseline %v", cond, fi, got, want)
				}
				if m.TotalReads() != pages {
					t.Fatalf("baseline charged %d reads, want one pass of %d", m.TotalReads(), pages)
				}
				clean[key{ci, fi}] = got
			}
		}
		corruptAll(stores)
		for ci, cond := range conds {
			if len(cond) == 0 {
				continue // no predicate, no measure read: nothing to corrupt
			}
			for fi, f := range funcs {
				got := degraded(t, fmt.Sprint(cond, fi), pages, func(o ...rankcube.Option) ([]rankcube.Result, error) {
					return cube.Query(bg, cond, f, 12, o...)
				})
				if !reflect.DeepEqual(got, clean[key{ci, fi}]) {
					t.Fatalf("cond %v func %d: fallback %v, clean %v", cond, fi, got, clean[key{ci, fi}])
				}
			}
		}
	}

	t.Run("grid", func(t *testing.T) {
		rel := rankcube.GenerateRelation(rows, 2, 2, card, rankcube.Uniform, 31)
		// Compressed cells keep real payloads in the cuboid pages, so scripted
		// corruption has a checksum to fail.
		cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 100, CompressLists: true})
		held, dead := churn(t, 32, rows, card, 60, 90,
			func(sel []int32, rank []float64) (rankcube.TID, error) { return cube.InsertTuple(bg, sel, rank) },
			func(tid rankcube.TID) (bool, error) { return cube.DeleteTuple(bg, tid) })
		if dead == 0 || cube.PendingMaintenance() != 60+dead {
			t.Fatalf("churn left %d tombstones, %d pending", dead, cube.PendingMaintenance())
		}
		topk(t, cube, cube.Stores(), seqPages(rel, held))
		// Repartition compacts the relation and rebuilds every cuboid into a
		// fresh store: the quarantine goes with the old ones.
		if _, err := cube.Repartition(bg); err != nil {
			t.Fatal(err)
		}
		topk(t, cube, cube.Stores(), seqPages(rel, held-dead))
	})

	t.Run("signature+skyline", func(t *testing.T) {
		rel := rankcube.GenerateRelation(rows, 2, 2, card, rankcube.AntiCorrelated, 33)
		cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
		eng := rankcube.NewSkylineEngine(cube)
		dims := []int{0, 1}
		// Snapshots taken before the churn are stale after it: navigation from
		// them restarts from scratch, with no page held.
		_, stale, err := eng.Query(bg, rankcube.Cond{0: 1}, dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, staleDrill, err := eng.DrillDownQuery(bg, stale, rankcube.Cond{1: 2})
		if err != nil {
			t.Fatal(err)
		}
		held, dead := churn(t, 34, rows, card, 60, 90,
			func(sel []int32, rank []float64) (rankcube.TID, error) { return cube.InsertTuple(bg, sel, rank) },
			func(tid rankcube.TID) (bool, error) { return cube.DeleteTuple(bg, tid) })
		if dead == 0 {
			t.Fatal("churn deleted nothing")
		}

		// It charges what the fresh query charges, structure by structure,
		// and answers as it does.
		for _, nav := range []struct {
			step string
			run  func(o ...rankcube.Option) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error)
			cond rankcube.Cond
		}{
			{"drill-down", func(o ...rankcube.Option) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error) {
				return eng.DrillDownQuery(bg, stale, rankcube.Cond{1: 2}, o...)
			}, rankcube.Cond{0: 1, 1: 2}},
			{"roll-up of the drill-down", func(o ...rankcube.Option) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error) {
				return eng.RollUpQuery(bg, staleDrill, []int{0}, o...)
			}, rankcube.Cond{1: 2}},
		} {
			mNav, mFresh := rankcube.NewMetrics(), rankcube.NewMetrics()
			got, _, err := nav.run(rankcube.WithMetrics(mNav))
			if err != nil {
				t.Fatalf("%s after the churn: %v", nav.step, err)
			}
			want, _, err := eng.Query(bg, nav.cond, dims, nil, rankcube.WithMetrics(mFresh))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after the churn: %v, the fresh query %v", nav.step, got, want)
			}
			freshReads(t, nav.step+" after the churn", mNav, mFresh)
		}

		pages := seqPages(rel, held)
		sky, snap, err := eng.Query(bg, rankcube.Cond{0: 1}, dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		drill, snap2, err := eng.DrillDownQuery(bg, snap, rankcube.Cond{1: 2})
		if err != nil {
			t.Fatal(err)
		}
		roll, _, err := eng.RollUpQuery(bg, snap2, []int{0})
		if err != nil || len(sky) == 0 || len(drill) == 0 || len(roll) == 0 {
			t.Fatalf("skylines %d/%d/%d, err %v", len(sky), len(drill), len(roll), err)
		}

		topk(t, cube, cube.Stores(), pages) // leaves the signature store corrupt

		type skyAns struct {
			res  []rankcube.SkylineResult
			snap *rankcube.SkylineSnapshot
		}
		pack := func(res []rankcube.SkylineResult, snap *rankcube.SkylineSnapshot, err error) (skyAns, error) {
			return skyAns{res, snap}, err
		}
		fsky := degraded(t, "skyline", pages, func(o ...rankcube.Option) (skyAns, error) {
			return pack(eng.Query(bg, rankcube.Cond{0: 1}, dims, nil, o...))
		})
		// A degraded snapshot has no candidate basis: navigation restarts, and
		// on a corrupt store degrades again, charging its own one pass.
		fdrill := degraded(t, "drill-down", pages, func(o ...rankcube.Option) (skyAns, error) {
			return pack(eng.DrillDownQuery(bg, fsky.snap, rankcube.Cond{1: 2}, o...))
		})
		froll := degraded(t, "roll-up", pages, func(o ...rankcube.Option) (skyAns, error) {
			return pack(eng.RollUpQuery(bg, fdrill.snap, []int{0}, o...))
		})
		if !reflect.DeepEqual(sky, fsky.res) {
			t.Fatalf("skyline: fallback %v, clean %v", fsky.res, sky)
		}
		// Navigation emits the members it carried over first, so its order
		// is not the fresh search's: the same members are what is pinned.
		if !reflect.DeepEqual(skylineIDs(drill), skylineIDs(fdrill.res)) {
			t.Fatalf("drill-down: fallback %v, clean %v", fdrill.res, drill)
		}
		if !reflect.DeepEqual(skylineIDs(roll), skylineIDs(froll.res)) {
			t.Fatalf("roll-up: fallback %v, clean %v", froll.res, roll)
		}
	})

	t.Run("join", func(t *testing.T) {
		relA := rankcube.GenerateRelation(rows, 2, 2, 20, rankcube.Uniform, 35)
		relB := rankcube.GenerateRelation(rows, 2, 2, 20, rankcube.Uniform, 36)
		cubeA := rankcube.BuildSignatureCube(relA, rankcube.SigOptions{Fanout: 16})
		cubeB := rankcube.BuildSignatureCube(relB, rankcube.SigOptions{Fanout: 16})
		// Only deletes: a join relation carries one key per tuple.
		_, deadA := churn(t, 37, rows, 20, 0, 400, nil, func(tid rankcube.TID) (bool, error) { return cubeA.DeleteTuple(bg, tid) })
		_, deadB := churn(t, 38, rows, 20, 0, 400, nil, func(tid rankcube.TID) (bool, error) { return cubeB.DeleteTuple(bg, tid) })
		if deadA == 0 || deadB == 0 {
			t.Fatal("churn deleted nothing")
		}
		ja := rankcube.NewJoinRelation("A", relA, cubeA, joinKeys(rows, 50), 50)
		jb := rankcube.NewJoinRelation("B", relB, cubeB, joinKeys(rows, 50), 50)
		// The first query's left part is selective (about 7 matches), the
		// second's is not.
		queries := [][]rankcube.JoinPart{
			{{Rel: ja, Cond: rankcube.Cond{0: 3, 1: 4}, F: rankcube.Sum(0, 1)}, {Rel: jb, Cond: rankcube.Cond{}, F: rankcube.Sum(0, 1)}},
			{{Rel: ja, Cond: rankcube.Cond{0: 3}, F: rankcube.Sum(0, 1)}, {Rel: jb, Cond: rankcube.Cond{1: 7}, F: rankcube.Sum(0)}},
		}
		var clean [][]rankcube.JoinResult
		for _, parts := range queries {
			got, err := rankcube.JoinQuery(bg, parts, 6)
			if err != nil || len(got) == 0 {
				t.Fatalf("join: %v %v", got, err)
			}
			clean = append(clean, got)
		}
		corruptAll(cubeA.Stores())
		for i, parts := range queries {
			got := degraded(t, "join", seqPages(relA, rows)+seqPages(relB, rows), func(o ...rankcube.Option) ([]rankcube.JoinResult, error) {
				return rankcube.JoinQuery(bg, parts, 6, o...)
			})
			if !reflect.DeepEqual(got, clean[i]) {
				t.Fatalf("join %d: fallback %v, clean %v", i, got, clean[i])
			}
		}
	})
}

// TestGridMaintenanceCrossesTheBoundary checks what grid writes gained by
// entering through runQuery: cancellation fails fast and applies nothing,
// the write has a root span, and the registry sees it.
func TestGridMaintenanceCrossesTheBoundary(t *testing.T) {
	rel := rankcube.GenerateRelation(1000, 2, 2, 4, rankcube.Uniform, 21)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 100})
	reg := rankcube.DefaultRegistry()

	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := cube.InsertTuple(canceled, []int32{1, 1}, []float64{0, 0}); !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("insert under a canceled context: %v, want ErrCanceled", err)
	}
	if _, err := cube.DeleteTuple(canceled, 0); !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("delete under a canceled context: %v, want ErrCanceled", err)
	}
	if _, err := cube.Repartition(canceled); !errors.Is(err, rankcube.ErrCanceled) {
		t.Fatalf("repartition under a canceled context: %v, want ErrCanceled", err)
	}
	if rel.Len() != 1000 || cube.PendingMaintenance() != 0 {
		t.Fatalf("canceled maintenance applied: Len %d, pending %d", rel.Len(), cube.PendingMaintenance())
	}

	inserts := reg.Counter("queries.grid.insert.ok").Value()
	tr := rankcube.NewTrace()
	tid, err := cube.InsertTuple(bg, []int32{1, 1}, []float64{0, 0}, rankcube.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if root := tr.Root(); root == nil || root.Name != "grid.insert" {
		t.Fatalf("insert trace has no grid.insert root span:\n%s", tr.Render())
	}
	if got := reg.Counter("queries.grid.insert.ok").Value(); got != inserts+1 {
		t.Fatalf("queries.grid.insert.ok went %d → %d, want one more", inserts, got)
	}
	if ok, err := cube.DeleteTuple(bg, tid); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	samples := reg.Histogram("latency.grid.repartition").Count()
	if _, err := cube.Repartition(bg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("latency.grid.repartition").Count(); got != samples+1 {
		t.Fatalf("latency.grid.repartition has %d samples, had %d: want one more", got, samples)
	}
}

// TestGovernorBoundsOnSignatureScan holds the governor to its two bounds on
// the progressive scan, through OpenScan: a scan canceled in the middle of a
// page access is charged that access and nothing after, a read budget is
// overshot by less than one page, both observed from Next; Close releases the
// admission slot the scan held; a context that cannot be canceled never stops
// a scan.
func TestGovernorBoundsOnSignatureScan(t *testing.T) {
	// Two big cells under a narrow tree: the conjunction's partial signatures
	// are loaded a few at a time as the scan deepens.
	rel := rankcube.GenerateRelation(20000, 2, 2, 2, rankcube.Uniform, 61)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8})
	cube.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: 1, Name: "scan-bounds"})
	st := cube.Stores()[0]
	if st.Blocks() != int64(st.NumPages()) {
		t.Fatalf("%d blocks over %d pages: a partial signature is not one block", st.Blocks(), st.NumPages())
	}
	cond, f := rankcube.Cond{0: 1, 1: 0}, rankcube.Sum(0, 1)

	// drain pulls up to n results, returning them, the stream's error and the
	// metrics when it stopped; the slot must be held until Close.
	drain := func(ctx context.Context, n int, m *rankcube.Metrics, opts ...rankcube.Option) ([]rankcube.Result, error) {
		t.Helper()
		sc, err := cube.OpenScan(ctx, cond, f, append(opts, rankcube.WithMetrics(m))...)
		if err != nil {
			return nil, err
		}
		var out []rankcube.Result
		for len(out) < n {
			r, ok, nerr := sc.Next()
			if nerr != nil {
				err = nerr
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		if s := cube.AdmissionStats(); s.InFlight != 1 {
			t.Fatalf("open scan holds %d admission slots, want 1", s.InFlight)
		}
		sc.Close()
		if s := cube.AdmissionStats(); s.InFlight != 0 {
			t.Fatalf("closed scan holds %d admission slots, want 0", s.InFlight)
		}
		return out, err
	}

	const n = 2000
	clean := rankcube.NewMetrics()
	want, err := drain(bg, n, clean)
	if err != nil || len(want) != n {
		t.Fatalf("clean scan: %d results, %v", len(want), err)
	}
	if clean.TotalReads() < 20 {
		t.Fatalf("scan reads %d blocks, too few to show a bound", clean.TotalReads())
	}
	for name, ctx := range map[string]context.Context{"nil": nil, "background": bg} {
		m := rankcube.NewMetrics()
		got, err := drain(ctx, n, m)
		if err != nil || !reflect.DeepEqual(got, want) || m.TotalReads() != clean.TotalReads() {
			t.Fatalf("%s context: err %v, %d results, %d reads (ungoverned %d)", name, err, len(got), m.TotalReads(), clean.TotalReads())
		}
	}

	// Cancel from inside the fifth access to the signature store: the hook
	// runs before that access is charged, the governor sees the cancellation
	// when it is. The Metrics is filled at Close; the trace counts each read
	// as it is charged.
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	m, tr := rankcube.NewMetrics(), rankcube.NewTrace()
	accesses, atCancel := 0, int64(-1)
	st.SetFaultInjector(&pager.ScriptedFaults{OnRead: func(pager.PageID, int) {
		if accesses++; accesses == 5 {
			atCancel = tr.TotalReads()
			cancel()
		}
	}})
	_, err = drain(ctx, n, m, rankcube.WithTrace(tr))
	st.SetFaultInjector(nil)
	if !errors.Is(err, rankcube.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if over := m.TotalReads() - atCancel; atCancel < 0 || over != 1 {
		t.Fatalf("canceled at %d reads, stopped at %d: want the one access in flight and nothing after", atCancel, m.TotalReads())
	}

	for _, limit := range []int64{1, 3, clean.TotalReads() / 2, clean.TotalReads() - 1} {
		m := rankcube.NewMetrics()
		_, err := drain(bg, n, m, rankcube.WithBudget(rankcube.Budget{MaxBlockReads: limit}))
		if !errors.Is(err, rankcube.ErrBudgetExceeded) {
			t.Fatalf("limit %d: err = %v, want ErrBudgetExceeded", limit, err)
		}
		if over := m.TotalReads() - limit; over != 1 {
			t.Fatalf("limit %d overshot by %d blocks, want the one page that tripped it", limit, over)
		}
	}
	m = rankcube.NewMetrics()
	if _, err := drain(bg, n, m, rankcube.WithBudget(rankcube.Budget{MaxBlockReads: clean.TotalReads()})); err != nil {
		t.Fatalf("a budget of exactly the scan's reads tripped: %v", err)
	}

	// The scan is a registry citizen like every other kind.
	reg := rankcube.DefaultRegistry()
	if reg.Histogram("latency.sig.scan").Count() < 8 || reg.Counter("queries.sig.scan."+string(rankcube.OutcomeBudget)).Value() < 4 {
		t.Fatalf("registry is missing the scans: latency.sig.scan %v", reg.Histogram("latency.sig.scan"))
	}
}

// TestGovernorBoundsOnSignatureConjunction holds the governor to the same
// bounds on the top-k query of a conjunction assembled from atomic cuboids,
// where the search consults a node's children bits before it pays for the
// node: the access a bound trips on is as often a signature page as the
// partition page it decides about, and the decision must not be acted on.
func TestGovernorBoundsOnSignatureConjunction(t *testing.T) {
	// Cells big enough to be cut into several partials, a conjunction selective
	// enough that most leaves holding a tuple of each cell hold none of both.
	rel := rankcube.GenerateRelation(60000, 2, 2, 6, rankcube.Uniform, 62)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8})
	st := cube.Stores()[0]
	cond, f, k := rankcube.Cond{0: 3, 1: 5}, rankcube.Sum(0, 1), 300
	strict := func(limit int64) rankcube.Option {
		return rankcube.WithBudget(rankcube.Budget{MaxBlockReads: limit, DisableFallback: true})
	}

	clean := rankcube.NewMetrics()
	want, err := cube.Query(bg, cond, f, k, rankcube.WithMetrics(clean))
	if err != nil || len(want) != k {
		t.Fatalf("clean query: %d results, %v", len(want), err)
	}
	sigReads, total := clean.Reads(rankcube.StructSignature), clean.TotalReads()
	if sigReads < 4 || total-sigReads < 20 {
		t.Fatalf("query reads %d signature and %d partition blocks, too few to show a bound", sigReads, total-sigReads)
	}

	// Cancel from inside each of the first accesses to the signature store in
	// turn: whichever node that page was consulted about stays unread. The
	// trace counts reads as they are charged, the Metrics once the query is
	// over.
	for nth := 1; nth <= int(sigReads); nth++ {
		ctx, cancel := context.WithCancel(bg)
		m, tr := rankcube.NewMetrics(), rankcube.NewTrace()
		accesses, atCancel := 0, int64(-1)
		st.SetFaultInjector(&pager.ScriptedFaults{OnRead: func(pager.PageID, int) {
			if accesses++; accesses == nth {
				atCancel = tr.TotalReads()
				cancel()
			}
		}})
		_, err := cube.Query(ctx, cond, f, k, rankcube.WithMetrics(m), rankcube.WithTrace(tr))
		st.SetFaultInjector(nil)
		cancel()
		if !errors.Is(err, rankcube.ErrCanceled) {
			t.Fatalf("canceled in signature access %d: err = %v, want ErrCanceled", nth, err)
		}
		if over := m.TotalReads() - atCancel; atCancel < 0 || over != 1 {
			t.Fatalf("canceled in signature access %d at %d reads, stopped at %d: want the one access in flight and nothing after", nth, atCancel, m.TotalReads())
		}
	}

	for _, limit := range []int64{1, 3, total / 2, total - 1} {
		m := rankcube.NewMetrics()
		res, err := cube.Query(bg, cond, f, k, rankcube.WithMetrics(m), strict(limit))
		if !errors.Is(err, rankcube.ErrBudgetExceeded) || res != nil {
			t.Fatalf("limit %d: %d results, err = %v, want ErrBudgetExceeded", limit, len(res), err)
		}
		if over := m.TotalReads() - limit; over != 1 {
			t.Fatalf("limit %d overshot by %d blocks, want the one page that tripped it", limit, over)
		}
	}
	m := rankcube.NewMetrics()
	if got, err := cube.Query(bg, cond, f, k, rankcube.WithMetrics(m), strict(total)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a budget of exactly the query's %d reads: %v, %v", total, got, err)
	}

	baseline, err := cube.BaselineQuery(bg, cond, f, k)
	if err != nil {
		t.Fatal(err)
	}
	m = rankcube.NewMetrics()
	got, err := cube.Query(bg, cond, f, k, rankcube.WithMetrics(m),
		rankcube.WithBudget(rankcube.Budget{MaxBlockReads: total - 1, FallbackOnBudget: true}))
	if err != nil || !reflect.DeepEqual(got, baseline) || m.Downgrades != 1 {
		t.Fatalf("fallback on budget: %v (%v, %d downgrades), baseline %v", got, err, m.Downgrades, baseline)
	}
}

// countingFunc counts the tuples a scan scores and cancels the query's context
// at the at-th.
type countingFunc struct {
	rankcube.Func
	n, at  int
	cancel context.CancelFunc
}

func (f *countingFunc) Eval(x []float64) float64 {
	if f.n++; f.n == f.at {
		f.cancel()
	}
	return f.Func.Eval(x)
}

// TestGovernorBoundsOnTableScan holds the governor to its bounds, in pages, on
// the sequential scan every engine falls back to: at 3M rows a 20 ms deadline
// must stop the scan well before its 80 ms pass ends. Scaled down, the
// deadline is a cancel from inside the scan, at a known row. The scan runs
// through TableScanQuery, a cube's BaselineQuery and a signature cube's forced
// fallback (corrupted stores, Budget.FallbackOnBudget unset): each charges one
// table read per page of a heap file of whole rows, as it walks the page; a
// cancel returns the context's typed error having walked no more than the rest
// of its page; a read budget of n trips at read n + 1.
func TestGovernorBoundsOnTableScan(t *testing.T) {
	// One value per selection dimension: every row matches the condition, so
	// a scan scores every row it walks, and the signature cube must read its
	// (corrupted) signatures to answer.
	rel := rankcube.GenerateRelation(30000, 2, 2, 1, rankcube.Uniform, 63)
	cond := rankcube.Cond{0: 0}
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	broken := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	for _, st := range broken.Stores() {
		st.SetFaultInjector(&pager.ScriptedFaults{CorruptAll: true})
	}
	rowsPage, pages := pager.PageSize/rel.RowBytes(), seqPages(rel, rel.Len())
	scans := []struct {
		name     string
		degrades int64
		run      func(ctx context.Context, f rankcube.Func, opts ...rankcube.Option) ([]rankcube.Result, error)
	}{
		{"table scan", 0, func(ctx context.Context, f rankcube.Func, opts ...rankcube.Option) ([]rankcube.Result, error) {
			return rankcube.TableScanQuery(ctx, rel, cond, f, 10, opts...)
		}},
		{"signature baseline", 0, func(ctx context.Context, f rankcube.Func, opts ...rankcube.Option) ([]rankcube.Result, error) {
			return sig.BaselineQuery(ctx, cond, f, 10, opts...)
		}},
		{"grid baseline", 0, func(ctx context.Context, f rankcube.Func, opts ...rankcube.Option) ([]rankcube.Result, error) {
			return grid.BaselineQuery(ctx, cond, f, 10, opts...)
		}},
		{"signature fallback", 1, func(ctx context.Context, f rankcube.Func, opts ...rankcube.Option) ([]rankcube.Result, error) {
			return broken.Query(ctx, cond, f, 10, opts...)
		}},
	}
	want, err := rankcube.TableScanQuery(bg, rel, cond, rankcube.Sum(0, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scans {
		// An uncanceled pass: one read per page, every row scored once, the
		// answer of the table scan.
		m := rankcube.NewMetrics()
		f := &countingFunc{Func: rankcube.Sum(0, 1)}
		got, err := sc.run(bg, f, rankcube.WithMetrics(m))
		if err != nil || !reflect.DeepEqual(got, want) || m.Downgrades != sc.degrades {
			t.Fatalf("%s: %v (%v, %d downgrades), table scan %v", sc.name, got, err, m.Downgrades, want)
		}
		if m.Reads(rankcube.StructTable) != pages || f.n != rel.Len() {
			t.Fatalf("%s: %d table reads scoring %d rows, want %d pages of %d rows", sc.name, m.Reads(rankcube.StructTable), f.n, pages, rel.Len())
		}

		// Canceled in the middle of its third page: the scan finishes that page,
		// is charged the next, and stops there.
		ctx, cancel := context.WithCancel(bg)
		m = rankcube.NewMetrics()
		f = &countingFunc{Func: rankcube.Sum(0, 1), at: 2*rowsPage + rowsPage/2, cancel: cancel}
		_, err = sc.run(ctx, f, rankcube.WithMetrics(m))
		cancel()
		if !errors.Is(err, rankcube.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled wrapping context.Canceled", sc.name, err)
		}
		if after := f.n - f.at; after >= rowsPage || m.Reads(rankcube.StructTable) != 4 {
			t.Fatalf("%s: scored %d rows after the cancel in %d table reads, want under a page (%d rows) in 4", sc.name, after, m.Reads(rankcube.StructTable), rowsPage)
		}
	}

	// A read budget of n trips at read n + 1, having scored n pages of rows.
	// The fallback runs without one (FallbackOnBudget is unset: the budget is
	// not why it runs), so the degraded query answers in full.
	for _, sc := range scans {
		for _, limit := range []int64{1, pages / 2, pages - 1} {
			m := rankcube.NewMetrics()
			f := &countingFunc{Func: rankcube.Sum(0, 1)}
			got, err := sc.run(bg, f, rankcube.WithMetrics(m), rankcube.WithBudget(rankcube.Budget{MaxBlockReads: limit}))
			if sc.degrades > 0 {
				if err != nil || !reflect.DeepEqual(got, want) || m.Reads(rankcube.StructTable) != pages {
					t.Fatalf("%s, limit %d: %v (%v) in %d table reads, want the table scan's answer in %d", sc.name, limit, got, err, m.Reads(rankcube.StructTable), pages)
				}
				continue
			}
			if !errors.Is(err, rankcube.ErrBudgetExceeded) || m.TotalReads() != limit+1 || f.n != int(limit)*rowsPage {
				t.Fatalf("%s, limit %d: err = %v after %d reads scoring %d rows, want ErrBudgetExceeded at read %d after %d rows",
					sc.name, limit, err, m.TotalReads(), f.n, limit+1, int(limit)*rowsPage)
			}
		}
		if _, err := sc.run(bg, rankcube.Sum(0, 1), rankcube.WithBudget(rankcube.Budget{MaxBlockReads: pages})); err != nil {
			t.Fatalf("%s: a budget of exactly the pass's %d pages tripped: %v", sc.name, pages, err)
		}
	}
}
