package rankcube_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rankcube"
)

// These tests exist to run under -race (make race / make check): parallel
// queries against both cube engines while maintenance runs, asserting every
// outcome is typed and every answer reconciles exactly with a baseline scan
// taken under the same lock epoch.

// TestSignatureCubeConcurrentQueryMaintain storms a signature cube with
// concurrent queries while InsertTuple/DeleteTuple run. Queries that
// snapshot the cube under the harness lock must match the baseline scan
// exactly; unsynchronized queries merely must return typed results.
func TestSignatureCubeConcurrentQueryMaintain(t *testing.T) {
	const (
		n       = 1200
		s       = 2
		card    = 4
		workers = 8
		iters   = 40
	)
	rel := rankcube.GenerateRelation(n, s, 2, card, rankcube.Uniform, 7)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
	f := rankcube.Sum(0, 1)
	ctx := context.Background()

	// consistent serializes a query+baseline pair against mutators so the
	// crosscheck compares answers over the same cube state; raw queries run
	// without it, exercising the engine's own lock under -race.
	var consistent sync.RWMutex
	var wg sync.WaitGroup
	var inserted atomic.Int64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				cond := rankcube.Cond{rng.Intn(s): int32(rng.Intn(card))}
				k := 1 + rng.Intn(10)
				switch w % 4 {
				case 0: // mutator: insert
					consistent.Lock()
					sel := []int32{int32(rng.Intn(card)), int32(rng.Intn(card))}
					rank := []float64{rng.Float64(), rng.Float64()}
					if _, err := cube.InsertTuple(ctx, sel, rank); err != nil {
						t.Errorf("insert: %v", err)
					}
					inserted.Add(1)
					consistent.Unlock()
				case 1: // mutator: delete (may miss; that's fine)
					consistent.Lock()
					if _, err := cube.DeleteTuple(ctx, rankcube.TID(rng.Intn(n))); err != nil {
						t.Errorf("delete: %v", err)
					}
					consistent.Unlock()
				case 2: // checked query: must reconcile with the baseline
					consistent.RLock()
					got, err := cube.Query(ctx, cond, f, k)
					want, berr := cube.BaselineQuery(ctx, cond, f, k)
					consistent.RUnlock()
					if err != nil || berr != nil {
						t.Errorf("checked query: err=%v baseline=%v", err, berr)
					} else if !scoresEqual(got, want) {
						t.Errorf("torn result: cube %v vs baseline %v", got, want)
					}
				default: // raw query: typed outcome only
					if _, err := cube.Query(ctx, cond, f, k); err != nil {
						t.Errorf("raw query: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the storm the cube must still reconcile exactly.
	got, err := cube.Query(ctx, rankcube.Cond{0: 1}, f, 25)
	if err != nil {
		t.Fatalf("post-storm query: %v", err)
	}
	want, err := cube.BaselineQuery(ctx, rankcube.Cond{0: 1}, f, 25)
	if err != nil {
		t.Fatalf("post-storm baseline: %v", err)
	}
	if !scoresEqual(got, want) {
		t.Fatalf("post-storm mismatch: cube %v vs baseline %v", got, want)
	}
}

// TestConcurrentNavigationFromOneSnapshot: a snapshot is read, never written,
// by the steps taken from it — its skyline, its pruned candidates and the pages
// its chain holds. Two goroutines drilling down and rolling up from one
// snapshot each get the answer and the reads of the same step taken alone.
func TestConcurrentNavigationFromOneSnapshot(t *testing.T) {
	ctx := context.Background()
	rel := rankcube.GenerateRelation(5000, 3, 3, 4, rankcube.AntiCorrelated, 9)
	eng := rankcube.NewSkylineEngine(rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16}))
	dims := []int{0, 1, 2}
	_, snap, err := eng.Query(ctx, rankcube.Cond{0: 1}, dims, nil)
	if err == nil {
		_, snap, err = eng.DrillDownQuery(ctx, snap, rankcube.Cond{1: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		res   []rankcube.SkylineResult
		reads [3]int64
	}
	steps := []func(m *rankcube.Metrics) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error){
		func(m *rankcube.Metrics) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error) {
			return eng.RollUpQuery(ctx, snap, []int{0}, rankcube.WithMetrics(m))
		},
		func(m *rankcube.Metrics) ([]rankcube.SkylineResult, *rankcube.SkylineSnapshot, error) {
			return eng.DrillDownQuery(ctx, snap, rankcube.Cond{2: 3}, rankcube.WithMetrics(m))
		},
	}
	take := func(step int) (answer, error) {
		m := rankcube.NewMetrics()
		res, _, err := steps[step](m)
		return answer{res, [3]int64{m.Reads(rankcube.StructRTree), m.Reads(rankcube.StructSignature), m.Reads(rankcube.StructTable)}}, err
	}
	alone := make([]answer, len(steps))
	for i := range steps {
		if alone[i], err = take(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				step := (w + i) % len(steps)
				got, err := take(step)
				if err != nil {
					t.Errorf("step %d: %v", step, err)
				} else if !reflect.DeepEqual(got, alone[step]) {
					t.Errorf("step %d: %d members, reads %v; alone %d members, reads %v", step, len(got.res), got.reads, len(alone[step].res), alone[step].reads)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGridCubeConcurrentQueryMaintain storms a grid cube with concurrent
// queries while InsertTuple/DeleteTuple/Repartition run under the cube's
// single-writer discipline.
func TestGridCubeConcurrentQueryMaintain(t *testing.T) {
	const (
		n       = 1500
		s       = 2
		card    = 4
		workers = 8
		iters   = 30
	)
	rel := rankcube.GenerateRelation(n, s, 2, card, rankcube.Uniform, 11)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 100})
	f := rankcube.Sum(0, 1)
	ctx := context.Background()

	var consistent sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < iters; i++ {
				cond := rankcube.Cond{rng.Intn(s): int32(rng.Intn(card))}
				k := 1 + rng.Intn(10)
				switch w % 4 {
				case 0: // mutator: insert, with an occasional repartition
					consistent.Lock()
					sel := []int32{int32(rng.Intn(card)), int32(rng.Intn(card))}
					_, err := cube.InsertTuple(ctx, sel, []float64{rng.Float64(), rng.Float64()})
					if err == nil && i%10 == 9 {
						_, err = cube.Repartition(ctx)
					}
					consistent.Unlock()
					if err != nil {
						t.Errorf("grid maintenance: %v", err)
					}
				case 1: // mutator: tombstone
					consistent.Lock()
					_, err := cube.DeleteTuple(ctx, rankcube.TID(rng.Intn(n)))
					consistent.Unlock()
					if err != nil {
						t.Errorf("grid delete: %v", err)
					}
				case 2: // checked query
					consistent.RLock()
					got, err := cube.Query(ctx, cond, f, k)
					want, berr := cube.BaselineQuery(ctx, cond, f, k)
					consistent.RUnlock()
					if err != nil || berr != nil {
						t.Errorf("checked query: err=%v baseline=%v", err, berr)
					} else if !scoresEqual(got, want) {
						t.Errorf("torn result: cube %v vs baseline %v", got, want)
					}
				default: // raw query
					if _, err := cube.Query(ctx, cond, f, k); err != nil {
						t.Errorf("raw query: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentScanHoldsOffMaintenance verifies an open governed scan
// blocks maintenance until Close, and that results keep flowing while a
// writer waits.
func TestConcurrentScanHoldsOffMaintenance(t *testing.T) {
	rel := rankcube.GenerateRelation(800, 2, 2, 4, rankcube.Uniform, 3)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
	ctx := context.Background()

	sc, err := cube.OpenScan(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1))
	if err != nil {
		t.Fatalf("OpenScan: %v", err)
	}

	inserted := make(chan error, 1)
	go func() {
		_, err := cube.InsertTuple(ctx, []int32{1, 1}, []float64{0.5, 0.5})
		inserted <- err
	}()

	// Drain a few results while the writer is (or soon will be) parked on
	// the cube's exclusive lock.
	for i := 0; i < 5; i++ {
		if _, ok, err := sc.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		} else if !ok {
			break
		}
	}
	sc.Close()
	if err := <-inserted; err != nil {
		t.Fatalf("insert after scan close: %v", err)
	}
}

// TestAdmissionOverloadTyped verifies gate rejections surface as
// ErrOverloaded from the public Query path and that Drain refuses new
// queries.
func TestAdmissionOverloadTyped(t *testing.T) {
	rel := rankcube.GenerateRelation(2000, 2, 2, 4, rankcube.Uniform, 5)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
	cube.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: 1, MaxWaiting: 0, Name: "sig-test"})
	ctx := context.Background()
	f := rankcube.Sum(0, 1)

	// An open scan holds the cube's only admission slot until Close, so a
	// concurrent query is deterministically shed, and counted as such.
	sc, err := cube.OpenScan(ctx, rankcube.Cond{0: 1}, f)
	if err != nil {
		t.Fatalf("OpenScan: %v", err)
	}
	shed := rankcube.DefaultRegistry().Counter("queries.sig.topk." + string(rankcube.OutcomeOverloaded))
	before := shed.Value()
	if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, f, 10); !errors.Is(err, rankcube.ErrOverloaded) {
		sc.Close()
		t.Fatalf("query against a full gate err = %v, want ErrOverloaded", err)
	}
	sc.Close()
	if got := shed.Value() - before; got != 1 {
		t.Fatalf("a shed query moved queries.sig.topk.overloaded by %d, want 1", got)
	}
	if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, f, 10); err != nil {
		t.Fatalf("query after slot release: %v", err)
	}

	// A storm over the 1-slot gate must only ever produce typed outcomes.
	var overloaded, ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := cube.Query(ctx, rankcube.Cond{0: 1}, f, 10)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, rankcube.ErrOverloaded):
					overloaded.Add(1)
				default:
					t.Errorf("untyped outcome: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no query was admitted")
	}
	st := cube.AdmissionStats()
	if !st.Gated || st.InFlight != 0 {
		t.Fatalf("gate stats after storm: %+v", st)
	}
	_ = overloaded.Load() // sheds depend on scheduling; typedness is the assertion

	if err := cube.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, f, 1); !errors.Is(err, rankcube.ErrOverloaded) {
		t.Fatalf("post-drain query err = %v, want ErrOverloaded", err)
	}
}

// TestQueuedQueryDeadlineKeepsCause: a query whose deadline passes while it
// waits at admission fails with ErrCanceled and the context's own error, as a
// query canceled mid-search does.
func TestQueuedQueryDeadlineKeepsCause(t *testing.T) {
	rel := rankcube.GenerateRelation(2000, 2, 2, 4, rankcube.Uniform, 5)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
	// A fresh gate has no service-time estimate, so the waiter parks rather
	// than being shed on its deadline.
	cube.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: 1, MaxWaiting: 1, Name: "sig-queue-deadline"})
	f := rankcube.Sum(0, 1)
	sc, err := cube.OpenScan(context.Background(), rankcube.Cond{0: 1}, f)
	if err != nil {
		t.Fatalf("OpenScan: %v", err)
	}
	defer sc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = cube.Query(ctx, rankcube.Cond{0: 1}, f, 10)
	if !errors.Is(err, rankcube.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestPooledSearchStorage runs, under -race, the requests that take a
// signature search's storage and its views' storage from their pools and hand
// them back — top-k queries on one cell and on conjunctions of two, governed
// scans closed early, rank joins and skyline query → drill-down → roll-up
// chains — concurrently on one cube: every answer must equal the one the same
// request gave alone. A scan held open across 100 top-k queries keeps its own
// storage and still streams its answer, and a closed scan reads nothing more.
func TestPooledSearchStorage(t *testing.T) {
	rel := rankcube.GenerateRelation(3000, 2, 2, 4, rankcube.Uniform, 43)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 12})
	other := rankcube.GenerateRelation(1500, 2, 2, 4, rankcube.Uniform, 44)
	otherCube := rankcube.BuildSignatureCube(other, rankcube.SigOptions{Fanout: 12})
	ctx := context.Background()
	conds := []rankcube.Cond{{}, {0: 1}, {0: 2, 1: 3}, {1: 0}, {0: 1, 1: 1}, {0: 3, 1: 0}}
	funcs := []rankcube.Func{rankcube.Sum(0, 1), rankcube.SqDist([]int{0, 1}, []float64{0.4, 0.6})}

	query := func(i int) []rankcube.Result {
		res, err := cube.Query(ctx, conds[i%len(conds)], funcs[i%len(funcs)], 1+i%20)
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
		return res
	}
	scan := func(i, pulls int) []rankcube.Result {
		sc, err := cube.OpenScan(ctx, conds[i%len(conds)], funcs[i%len(funcs)])
		if err != nil {
			t.Errorf("scan %d: %v", i, err)
			return nil
		}
		defer sc.Close()
		var out []rankcube.Result
		for len(out) < pulls {
			r, ok, err := sc.Next()
			if err != nil {
				t.Errorf("scan %d: %v", i, err)
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		return out
	}
	join := func(i int) []rankcube.JoinResult {
		res, err := rankcube.JoinQuery(ctx, []rankcube.JoinPart{
			{Rel: rankcube.NewJoinRelation("A", rel, cube, joinKeys(3000, 40), 40), Cond: conds[i%len(conds)], F: rankcube.Sum(0, 1)},
			{Rel: rankcube.NewJoinRelation("B", other, otherCube, joinKeys(1500, 40), 40), Cond: rankcube.Cond{0: int32(i % 4)}, F: rankcube.Sum(0, 1)},
		}, 5)
		if err != nil {
			t.Errorf("join %d: %v", i, err)
		}
		return res
	}

	eng := rankcube.NewSkylineEngine(cube)
	// A chain of three steps, each on a fresh tester: {0: a}, drilled down to
	// {0: a, 1: b}, rolled up to {1: b}.
	sky := func(i int) [3][]rankcube.SkylineResult {
		var out [3][]rankcube.SkylineResult
		res, snap, err := eng.Query(ctx, rankcube.Cond{0: int32(i % 4)}, []int{0, 1}, nil)
		if err == nil {
			out[0] = res
			res, snap, err = eng.DrillDownQuery(ctx, snap, rankcube.Cond{1: int32(i / 4 % 4)})
		}
		if err == nil {
			out[1] = res
			out[2], _, err = eng.RollUpQuery(ctx, snap, []int{0})
		}
		if err != nil {
			t.Errorf("skyline chain %d: %v", i, err)
		}
		return out
	}

	const requests = 24
	wantQuery := make([][]rankcube.Result, requests)
	wantScan := make([][]rankcube.Result, requests)
	wantJoin := make([][]rankcube.JoinResult, requests)
	wantSky := make([][3][]rankcube.SkylineResult, requests)
	for i := 0; i < requests; i++ {
		wantQuery[i], wantScan[i], wantJoin[i], wantSky[i] = query(i), scan(i, 1+i%30), join(i), sky(i)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 2*requests; n++ {
				i := (n*5 + w) % requests
				switch (n + w) % 4 {
				case 0:
					if got := query(i); !reflect.DeepEqual(got, wantQuery[i]) {
						t.Errorf("query %d: %v, alone %v", i, got, wantQuery[i])
					}
				case 1:
					if got := scan(i, 1+i%30); !reflect.DeepEqual(got, wantScan[i]) {
						t.Errorf("scan %d: %v, alone %v", i, got, wantScan[i])
					}
				case 2:
					if got := join(i); !reflect.DeepEqual(got, wantJoin[i]) {
						t.Errorf("join %d: %v, alone %v", i, got, wantJoin[i])
					}
				default:
					if got := sky(i); !reflect.DeepEqual(got, wantSky[i]) {
						t.Errorf("skyline chain %d: %v, alone %v", i, got, wantSky[i])
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// One scan held open while 100 top-k queries take and return storage.
	const pulls = 100
	want := scan(1, pulls)
	sc, err := cube.OpenScan(ctx, conds[1], funcs[1])
	if err != nil {
		t.Fatal(err)
	}
	var got []rankcube.Result
	for i := 0; i < 100; i++ {
		if r, ok, err := sc.Next(); err != nil {
			t.Fatal(err)
		} else if ok {
			got = append(got, r)
		}
		if res := query(i % requests); !reflect.DeepEqual(res, wantQuery[i%requests]) {
			t.Fatalf("query %d beside the open scan: %v, alone %v", i, res, wantQuery[i%requests])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the held scan streamed %v, alone %v", got, want)
	}

	// A closed scan reads nothing: Next ends the stream, and the Metrics Close
	// filled do not move.
	m := &rankcube.Metrics{}
	sc, err = cube.OpenScan(ctx, conds[2], funcs[0], rankcube.WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.Next(); !ok || err != nil {
		t.Fatalf("first pull: ok %v, err %v", ok, err)
	}
	sc.Close()
	reads := m.TotalReads()
	for i := 0; i < 3; i++ {
		if r, ok, err := sc.Next(); ok || err != nil {
			t.Fatalf("Next after Close: %v, ok %v, err %v", r, ok, err)
		}
	}
	if m.TotalReads() != reads || reads == 0 {
		t.Fatalf("reads %d after Close, %d at Close", m.TotalReads(), reads)
	}
}
