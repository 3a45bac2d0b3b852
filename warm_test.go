package rankcube_test

// A stored cell's partial signatures are replayed once and the replay is
// shared by every later view of the cell (internal/signature). That is CPU,
// not accounting: these tests hold a warm cube — one whose partials earlier
// queries have replayed — to the answers, reads and faults of a cold one, and
// hold a cell rewritten under maintenance to answers from its new pages.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rankcube"
	"rankcube/internal/pager"
)

// resultTIDs lists the TIDs of a ranked answer in order.
func resultTIDs(rs []rankcube.Result) []rankcube.TID {
	out := make([]rankcube.TID, len(rs))
	for i, r := range rs {
		out[i] = r.TID
	}
	return out
}

// TestWarmViewsChargeLikeCold runs one request list twice on one cube: a cold
// pass, in which each partial's first load builds its replay, then a warm
// pass, in which every load finds it. Each request must give the same answer,
// the same reads per structure and the same states generated and pruned on
// both passes: a load that took the replay in place of reading its page would
// show as fewer signature reads.
func TestWarmViewsChargeLikeCold(t *testing.T) {
	// Cells of thousands of tuples under a narrow tree, cut into several
	// partials each.
	rel := rankcube.GenerateRelation(20000, 3, 2, 3, rankcube.Uniform, 41)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8})
	eng := rankcube.NewSkylineEngine(cube)
	other := rankcube.GenerateRelation(3000, 2, 2, 4, rankcube.Uniform, 42)
	otherCube := rankcube.BuildSignatureCube(other, rankcube.SigOptions{Fanout: 8})
	parts := []rankcube.JoinPart{
		{Rel: rankcube.NewJoinRelation("A", rel, cube, joinKeys(20000, 50), 50), Cond: rankcube.Cond{0: 1}, F: rankcube.Sum(0, 1)},
		{Rel: rankcube.NewJoinRelation("B", other, otherCube, joinKeys(3000, 50), 50), Cond: rankcube.Cond{1: 2}, F: rankcube.Sum(0, 1)},
	}
	f := rankcube.Sum(0, 1)
	near := rankcube.SqDist([]int{0, 1}, []float64{0.4, 0.6})
	ranked := func(rs []rankcube.Result, err error) (string, error) { return fmt.Sprint(rs), err }
	var snap *rankcube.SkylineSnapshot
	sky := func(rs []rankcube.SkylineResult, next *rankcube.SkylineSnapshot, err error) (string, error) {
		snap = next
		return fmt.Sprint(rs), err
	}
	requests := []struct {
		name string
		run  func(m *rankcube.Metrics) (string, error)
	}{
		{"cell", func(m *rankcube.Metrics) (string, error) {
			return ranked(cube.Query(bg, rankcube.Cond{0: 1}, f, 50, rankcube.WithMetrics(m)))
		}},
		{"cell, another function", func(m *rankcube.Metrics) (string, error) {
			return ranked(cube.Query(bg, rankcube.Cond{2: 0}, near, 200, rankcube.WithMetrics(m)))
		}},
		{"and of atomic cells", func(m *rankcube.Metrics) (string, error) {
			return ranked(cube.Query(bg, rankcube.Cond{0: 1, 1: 2}, f, 100, rankcube.WithMetrics(m)))
		}},
		{"scan", func(m *rankcube.Metrics) (string, error) {
			sc, err := cube.OpenScan(bg, rankcube.Cond{0: 2, 2: 1}, near, rankcube.WithMetrics(m))
			if err != nil {
				return "", err
			}
			var out []rankcube.Result
			for len(out) < 500 {
				r, ok, err := sc.Next()
				if err != nil || !ok {
					sc.Close()
					return fmt.Sprint(out), err
				}
				out = append(out, r)
			}
			sc.Close()
			return fmt.Sprint(out), nil
		}},
		{"skyline", func(m *rankcube.Metrics) (string, error) {
			return sky(eng.Query(bg, rankcube.Cond{0: 1}, []int{0, 1}, nil, rankcube.WithMetrics(m)))
		}},
		{"drill-down", func(m *rankcube.Metrics) (string, error) {
			return sky(eng.DrillDownQuery(bg, snap, rankcube.Cond{1: 2}, rankcube.WithMetrics(m)))
		}},
		{"roll-up", func(m *rankcube.Metrics) (string, error) {
			return sky(eng.RollUpQuery(bg, snap, []int{0}, rankcube.WithMetrics(m)))
		}},
		{"join", func(m *rankcube.Metrics) (string, error) {
			rs, err := rankcube.JoinQuery(bg, parts, 10, rankcube.WithMetrics(m))
			return fmt.Sprint(rs), err
		}},
	}
	type outcome struct {
		answer            string
		reads             string
		signature         int64
		generated, pruned int64
	}
	pass := func() []outcome {
		var out []outcome
		for _, req := range requests {
			m := rankcube.NewMetrics()
			answer, err := req.run(m)
			if err != nil {
				t.Fatalf("%s: %v", req.name, err)
			}
			out = append(out, outcome{answer, m.ReadCounts().String(), m.Reads(rankcube.StructSignature), m.StatesGenerated, m.Pruned})
		}
		return out
	}
	cold, warm := pass(), pass()
	most := int64(0)
	for i, req := range requests {
		if cold[i] != warm[i] {
			t.Errorf("%s: cold answer %.80s…, reads %s, states %d/%d pruned; warm answer %.80s…, reads %s, states %d/%d pruned",
				req.name, cold[i].answer, cold[i].reads, cold[i].generated, cold[i].pruned, warm[i].answer, warm[i].reads, warm[i].generated, warm[i].pruned)
		}
		most = max(most, cold[i].signature)
	}
	if most < 4 {
		t.Fatalf("no request read more than %d signature pages: too few for the replays to matter", most)
	}
}

// TestWarmCellCorruptionIsCaught: a cell's partials are replayed, then one of
// its signature pages goes bad. The next query of the cell must meet the bad
// page as it does on a cold cube — ErrPageCorrupt with fallback off, one
// downgrade to the exact scan with it on, the store quarantined either way,
// the same reads up to the fault — and once the fault is gone, Repair must
// give back a cube whose answers are BaselineQuery's, TIDs and order.
func TestWarmCellCorruptionIsCaught(t *testing.T) {
	rel := rankcube.GenerateRelation(20000, 2, 2, 2, rankcube.Uniform, 43)
	cond, f, k := rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 3000
	query := func(cube *rankcube.SignatureCube, opts ...rankcube.Option) ([]rankcube.Result, error) {
		return cube.Query(bg, cond, f, k, opts...)
	}

	// The page to corrupt: the last signature page the query reads, a partial
	// that loads under the replays of its ancestors.
	ref := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8})
	var read []pager.PageID
	ref.Stores()[0].SetFaultInjector(&pager.ScriptedFaults{OnRead: func(id pager.PageID, _ int) { read = append(read, id) }})
	want, err := query(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(read) < 3 {
		t.Fatalf("the query reads %d signature pages, want several", len(read))
	}
	bad := read[len(read)-1]

	type outcome struct {
		err         error
		downgrades  int64
		reads       string
		quarantined bool
	}
	var first map[bool]outcome
	for _, warm := range []bool{false, true} {
		got := map[bool]outcome{}
		for _, fallback := range []bool{false, true} {
			cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8})
			st := cube.Stores()[0]
			if warm {
				if _, err := query(cube); err != nil {
					t.Fatal(err)
				}
			}
			st.SetFaultInjector(&pager.ScriptedFaults{Corrupt: map[pager.PageID]bool{bad: true}})
			m := rankcube.NewMetrics()
			res, err := query(cube, rankcube.WithMetrics(m), rankcube.WithBudget(rankcube.Budget{DisableFallback: !fallback}))
			got[fallback] = outcome{err, m.Downgrades, m.ReadCounts().String(), st.Quarantined()}
			switch {
			case !fallback && !errors.Is(err, rankcube.ErrPageCorrupt):
				t.Fatalf("warm %v, no fallback: err = %v, want ErrPageCorrupt", warm, err)
			case fallback && (err != nil || m.Downgrades != 1 || !slices.Equal(resultTIDs(res), resultTIDs(want))):
				t.Fatalf("warm %v, fallback: err = %v, %d downgrades, answer %v; want one downgrade to %v", warm, err, m.Downgrades, resultTIDs(res), resultTIDs(want))
			case !st.Quarantined():
				t.Fatalf("warm %v, fallback %v: the store is not quarantined", warm, fallback)
			}

			st.SetFaultInjector(nil)
			if _, err := cube.Repair(bg); err != nil {
				t.Fatalf("warm %v, fallback %v: repair: %v", warm, fallback, err)
			}
			for _, c := range []rankcube.Cond{cond, {0: 0}, {0: 1, 1: 1}} {
				got, err := cube.Query(bg, c, f, k)
				base, berr := cube.BaselineQuery(bg, c, f, k)
				if err != nil || berr != nil || !slices.Equal(resultTIDs(got), resultTIDs(base)) {
					t.Fatalf("warm %v, fallback %v, after repair %v: %v (%v), baseline %v (%v)", warm, fallback, c, resultTIDs(got), err, resultTIDs(base), berr)
				}
			}
		}
		if warm {
			for fallback, o := range got {
				if c := first[fallback]; o.reads != c.reads || o.downgrades != c.downgrades || o.quarantined != c.quarantined || fmt.Sprint(o.err) != fmt.Sprint(c.err) {
					t.Errorf("fallback %v: warm %+v, cold %+v", fallback, o, c)
				}
			}
		}
		first = got
	}
}

// TestReplaysDoNotOutliveTheirCell runs readers over a few cells while a
// writer inserts tuples into and deletes tuples from those cells. Between
// writes every answer must be BaselineQuery's, TIDs and order: a view must
// never resolve a node through the replay of a cell encoding a write has
// replaced, whose pages the store may since have handed to another. Run under
// -race (make race) it also holds the replays' publication to the memory
// model.
func TestReplaysDoNotOutliveTheirCell(t *testing.T) {
	const (
		rows    = 8000
		readers = 3
		writes  = 40
	)
	rel := rankcube.GenerateRelation(rows, 2, 2, 2, rankcube.Uniform, 44)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 8})
	conds := []rankcube.Cond{{0: 1}, {1: 0}, {0: 1, 1: 0}}
	f := rankcube.Sum(0, 1)
	// A fault must surface, not be answered by the scan BaselineQuery runs.
	strict := rankcube.WithBudget(rankcube.Budget{DisableFallback: true})

	// consistent keeps a query and its baseline on one state of the cube.
	var consistent sync.RWMutex
	var done atomic.Bool
	var checked atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !done.Load(); i++ {
				cond, k := conds[i%len(conds)], 50+100*(i%3)
				consistent.RLock()
				got, err := cube.Query(bg, cond, f, k, strict)
				want, berr := cube.BaselineQuery(bg, cond, f, k)
				consistent.RUnlock()
				if err != nil || berr != nil || !slices.Equal(resultTIDs(got), resultTIDs(want)) {
					t.Errorf("reader %d, %v top %d: %v (%v), baseline %v (%v)", r, cond, k, resultTIDs(got), err, resultTIDs(want), berr)
					return
				}
				checked.Add(1)
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(45))
	for w := 0; w < writes; w++ {
		// Let the readers answer against the state the last write left.
		for n := checked.Load(); checked.Load() < n+readers && !t.Failed(); {
			runtime.Gosched()
		}
		consistent.Lock()
		var err error
		if w%2 == 0 {
			_, err = cube.InsertTuple(bg, []int32{1, 0}, []float64{rng.Float64() / 10, rng.Float64() / 10})
		} else {
			_, err = cube.DeleteTuple(bg, rankcube.TID(rng.Intn(rows)))
		}
		consistent.Unlock()
		if err != nil {
			t.Fatalf("write %d: %v", w, err)
		}
	}
	done.Store(true)
	wg.Wait()
}
