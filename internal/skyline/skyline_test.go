package skyline

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// bruteSkyline computes the reference answer by pairwise domination over
// the matching tuples.
func bruteSkyline(t *table.Table, q Query) map[table.TID]bool {
	type pt struct {
		tid   table.TID
		coord []float64
	}
	var pts []pt
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
		if !t.Matches(tid, q.Cond) {
			continue
		}
		pts = append(pts, pt{tid, q.appendCorner(nil, t.RankRow(tid, buf), buf, q.Dims)})
	}
	out := make(map[table.TID]bool)
	for i := range pts {
		dominated := false
		for j := range pts {
			if i != j && dominates(pts[j].coord, pts[i].coord) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[pts[i].tid] = true
		}
	}
	return out
}

func sameSkyline(t *testing.T, got []Result, want map[table.TID]bool) {
	t.Helper()
	if len(got) != len(want) {
		gotIDs := make([]int, 0, len(got))
		for _, r := range got {
			gotIDs = append(gotIDs, int(r.TID))
		}
		sort.Ints(gotIDs)
		t.Fatalf("got %d skyline points, want %d (got %v)", len(got), len(want), gotIDs)
	}
	for _, r := range got {
		if !want[r.TID] {
			t.Fatalf("tuple %d not in reference skyline", r.TID)
		}
	}
}

func buildEngine(n int, s, card int, dist table.Distribution, seed int64) (*table.Table, *Engine) {
	tb := table.Generate(table.GenSpec{T: n, S: s, R: 3, Card: card, Dist: dist, Seed: seed})
	cube := sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 16}})
	return tb, NewEngine(cube)
}

func TestStaticSkylineMatchesBrute(t *testing.T) {
	tb, e := buildEngine(4000, 2, 4, table.Uniform, 111)
	for _, cond := range []core.Cond{{}, {0: 1}, {0: 2, 1: 3}} {
		q := Query{Cond: cond, Dims: []int{0, 1}}
		got, _, err := e.Skyline(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameSkyline(t, got, bruteSkyline(tb, q))
	}
}

func TestSkylineThreeDims(t *testing.T) {
	tb, e := buildEngine(2000, 2, 3, table.AntiCorrelated, 112)
	q := Query{Cond: core.Cond{1: 1}, Dims: []int{0, 1, 2}}
	got, _, err := e.Skyline(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameSkyline(t, got, bruteSkyline(tb, q))
}

func TestDynamicSkylineMatchesBrute(t *testing.T) {
	tb, e := buildEngine(3000, 2, 4, table.Uniform, 113)
	rng := rand.New(rand.NewSource(114))
	for trial := 0; trial < 5; trial++ {
		q := Query{
			Cond:   core.Cond{0: int32(rng.Intn(4))},
			Dims:   []int{0, 1},
			Target: []float64{rng.Float64(), rng.Float64()},
		}
		got, _, err := e.Skyline(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameSkyline(t, got, bruteSkyline(tb, q))
	}
}

func TestDrillDownMatchesFresh(t *testing.T) {
	tb, e := buildEngine(4000, 3, 4, table.Uniform, 115)
	base := Query{Cond: core.Cond{0: 1}, Dims: []int{0, 1}}
	_, snap, err := e.Skyline(base, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.DrillDown(snap, core.Cond{1: 2}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	want := bruteSkyline(tb, Query{Cond: core.Cond{0: 1, 1: 2}, Dims: []int{0, 1}})
	sameSkyline(t, got, want)
}

// TestDrillDownCheaperThanFresh pins the §7.2.4 verdict — re-constructing the
// candidate heap beats starting over — in R-tree reads on an easy skyline,
// and on hard ones (anti-correlated, 3-d), summed over a handful of
// navigations, in total block reads and in states examined: the work the
// search does per request follows the second, so wall clock does too.
func TestDrillDownCheaperThanFresh(t *testing.T) {
	_, e := buildEngine(20000, 3, 5, table.Uniform, 116)
	base := Query{Cond: core.Cond{0: 1}, Dims: []int{0, 1}}
	_, snap, err := e.Skyline(base, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	drill := stats.New()
	if _, _, err := e.DrillDown(snap, core.Cond{1: 2}, drill); err != nil {
		t.Fatal(err)
	}
	fresh := stats.New()
	if _, _, err := e.Skyline(Query{Cond: core.Cond{0: 1, 1: 2}, Dims: []int{0, 1}}, fresh); err != nil {
		t.Fatal(err)
	}
	if drill.Reads(stats.StructRTree) > fresh.Reads(stats.StructRTree) {
		t.Fatalf("drill-down read %d R-tree blocks, fresh query %d",
			drill.Reads(stats.StructRTree), fresh.Reads(stats.StructRTree))
	}

	_, e = buildEngine(20000, 3, 10, table.AntiCorrelated, 121)
	drill, fresh = stats.New(), stats.New()
	for v := int32(0); v < 5; v++ {
		_, snap, err := e.Skyline(Query{Cond: core.Cond{0: v}, Dims: []int{0, 1, 2}}, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.DrillDown(snap, core.Cond{1: 9 - v}, drill); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Skyline(Query{Cond: core.Cond{0: v, 1: 9 - v}, Dims: []int{0, 1, 2}}, fresh); err != nil {
			t.Fatal(err)
		}
	}
	if drill.TotalReads() >= fresh.TotalReads() {
		t.Errorf("drill-downs read %d blocks, fresh queries %d", drill.TotalReads(), fresh.TotalReads())
	}
	if drill.StatesExamined >= fresh.StatesExamined {
		t.Errorf("drill-downs examined %d states, fresh queries %d", drill.StatesExamined, fresh.StatesExamined)
	}
	t.Logf("drill-down: %d reads, %d states examined; fresh: %d reads, %d states examined",
		drill.TotalReads(), drill.StatesExamined, fresh.TotalReads(), fresh.StatesExamined)
}

func TestRollUpMatchesFresh(t *testing.T) {
	tb, e := buildEngine(4000, 3, 4, table.Uniform, 117)
	base := Query{Cond: core.Cond{0: 1, 1: 2}, Dims: []int{0, 1}}
	_, snap, err := e.Skyline(base, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.RollUp(snap, []int{1}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	want := bruteSkyline(tb, Query{Cond: core.Cond{0: 1}, Dims: []int{0, 1}})
	sameSkyline(t, got, want)
}

func TestDrillDownContradictionRejected(t *testing.T) {
	_, e := buildEngine(500, 2, 3, table.Uniform, 118)
	_, snap, err := e.Skyline(Query{Cond: core.Cond{0: 1}, Dims: []int{0, 1}}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.DrillDown(snap, core.Cond{0: 2}, stats.New()); err == nil {
		t.Fatal("contradictory drill-down accepted")
	}
}

func TestEmptyPredicateCell(t *testing.T) {
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{5}, RankNames: []string{"x", "y"}})
	for i := 0; i < 200; i++ {
		tb.Append([]int32{int32(i % 2)}, []float64{float64(i%17) / 17, float64(i%13) / 13})
	}
	cube := sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 8}})
	e := NewEngine(cube)
	got, _, err := e.Skyline(Query{Cond: core.Cond{0: 4}, Dims: []int{0, 1}}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty cell produced %d skyline points", len(got))
	}
}

func TestValidation(t *testing.T) {
	_, e := buildEngine(100, 1, 2, table.Uniform, 119)
	if _, _, err := e.Skyline(Query{Dims: nil}, stats.New()); err == nil {
		t.Fatal("accepted empty dims")
	}
	if _, _, err := e.Skyline(Query{Dims: []int{9}}, stats.New()); err == nil {
		t.Fatal("accepted out-of-range dim")
	}
	if _, _, err := e.Skyline(Query{Dims: []int{0, 1}, Target: []float64{0.5}}, stats.New()); err == nil {
		t.Fatal("accepted mismatched target")
	}
}

// TestSkylineOnPartialPartition runs static and dynamic skylines on a
// partition covering dimensions 0 and 2 of three, so a preference dimension's
// covered position differs from its own, and refuses one on dimension 1.
func TestSkylineOnPartialPartition(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 2, R: 3, Card: 4, Dist: table.AntiCorrelated, Seed: 120})
	e := NewEngine(sigcube.BuildOnTree(tb, rtree.Bulk(tb, []int{0, 2}, ranking.UnitBox(3), rtree.Config{Fanout: 16}), sigcube.Config{}))
	for _, q := range []Query{
		{Cond: core.Cond{0: 1}, Dims: []int{2}},
		{Cond: core.Cond{1: 2}, Dims: []int{2, 0}},
		{Cond: core.Cond{0: 3}, Dims: []int{0, 2}, Target: []float64{0.3, 0.6}},
	} {
		got, _, err := e.Skyline(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameSkyline(t, got, bruteSkyline(tb, q))
	}
	if _, _, err := e.Skyline(Query{Dims: []int{2, 1}}, stats.New()); !errors.Is(err, errs.ErrInvalidArgument) {
		t.Fatalf("a dimension the partition does not cover: err %v, want ErrInvalidArgument", err)
	}
}

func TestBooleanPruningReducesWork(t *testing.T) {
	_, e := buildEngine(20000, 1, 50, table.Uniform, 120)
	sel := stats.New()
	if _, _, err := e.Skyline(Query{Cond: core.Cond{0: 7}, Dims: []int{0, 1}}, sel); err != nil {
		t.Fatal(err)
	}
	all := stats.New()
	if _, _, err := e.Skyline(Query{Dims: []int{0, 1}}, all); err != nil {
		t.Fatal(err)
	}
	if sel.Pruned == 0 {
		t.Fatal("no boolean pruning recorded for selective predicate")
	}
}

// TestConcurrentSearchesShareNoCandidates runs sessions on one engine from
// several goroutines at once — the engine lends each search its candidate
// storage and takes it back — and requires every answer to equal the one a
// lone session gets.
func TestConcurrentSearchesShareNoCandidates(t *testing.T) {
	_, e := buildEngine(6000, 3, 4, table.AntiCorrelated, 122)
	session := func(v int32) ([3][]Result, error) {
		var out [3][]Result
		var snap *Snapshot
		var err error
		if out[0], snap, err = e.Skyline(Query{Cond: core.Cond{0: v}, Dims: []int{0, 1, 2}}, stats.New()); err != nil {
			return out, err
		}
		if out[1], snap, err = e.DrillDown(snap, core.Cond{1: 3 - v}, stats.New()); err != nil {
			return out, err
		}
		out[2], _, err = e.RollUp(snap, []int{0}, stats.New())
		return out, err
	}
	var want [4][3][]Result
	for v := range want {
		var err error
		if want[v], err = session(int32(v)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v := (g + i) % len(want)
				got, err := session(int32(v))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[v]) {
					t.Errorf("goroutine %d, session %d: answers differ from the lone session's", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEqualPointsAreMembers: on the tie-heavy lattice, where tuples share
// points and a member's point is often the best corner of a node, the skyline
// holds every matching tuple no other strictly dominates, equal points
// included, as the scan and the pairwise check do. A node whose corner a
// member only equals may hold such a tuple, so the search must not prune it.
func TestEqualPointsAreMembers(t *testing.T) {
	tb := lattice(2000, 603)
	e := NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 9}}))
	for _, q := range []Query{
		{Dims: []int{0, 1, 2}},
		{Dims: []int{0, 1}},
		{Dims: []int{0, 1, 2}, Target: []float64{0.5, 0.5, 0.5}},
	} {
		want := bruteSkyline(tb, q)
		scan, _, err := e.ScanSkyline(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.Skyline(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(scan) != len(want) {
			t.Errorf("dims %v target %v: the search finds %d members, the scan %d, the pairwise check %d",
				q.Dims, q.Target, len(got), len(scan), len(want))
			continue
		}
		sameSkyline(t, scan, want)
		sameSkyline(t, got, want)
	}
}
