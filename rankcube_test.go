package rankcube_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"rankcube"
)

// bg is the context of tests that exercise neither cancellation nor
// deadlines.
var bg = context.Background()

// buildDemo creates a small relation through the public API.
func buildDemo(t testing.TB, n int) *rankcube.Relation {
	t.Helper()
	return rankcube.GenerateRelation(n, 3, 2, 5, rankcube.Uniform, 77)
}

// apiBrute is the reference answer through public accessors only.
func apiBrute(rel *rankcube.Relation, cond rankcube.Cond, f rankcube.Func, k int) []rankcube.Result {
	var all []rankcube.Result
	buf := make([]float64, rel.Schema().R())
	for i := 0; i < rel.Len(); i++ {
		tid := rankcube.TID(i)
		if !rel.Matches(tid, cond) {
			continue
		}
		score := f.Eval(rel.RankRow(tid, buf))
		if math.IsInf(score, 1) {
			continue
		}
		all = append(all, rankcube.Result{TID: tid, Score: score})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score < all[b].Score
		}
		return all[a].TID < all[b].TID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func checkScores(t *testing.T, got, want []rankcube.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("result %d: score %v, want %v", i, got[i].Score, want[i].Score)
		}
	}
}

func TestEnginesAgreeThroughPublicAPI(t *testing.T) {
	rel := buildDemo(t, 8000)
	grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	queries := []struct {
		cond rankcube.Cond
		f    rankcube.Func
		k    int
	}{
		{rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10},
		{rankcube.Cond{0: 2, 1: 3}, rankcube.SqDist([]int{0, 1}, []float64{0.5, 0.5}), 7},
		{rankcube.Cond{2: 4}, rankcube.Linear([]int{0, 1}, []float64{2, -1}), 12},
		{rankcube.Cond{1: 0}, rankcube.General(
			rankcube.Sqr(rankcube.Sub(rankcube.Var(0), rankcube.Sqr(rankcube.Var(1))))), 5},
	}
	for i, q := range queries {
		want := apiBrute(rel, q.cond, q.f, q.k)
		g, err := grid.Query(bg, q.cond, q.f, q.k)
		if err != nil {
			t.Fatalf("query %d grid: %v", i, err)
		}
		checkScores(t, g, want)
		s, err := sig.Query(bg, q.cond, q.f, q.k)
		if err != nil {
			t.Fatalf("query %d sig: %v", i, err)
		}
		checkScores(t, s, want)
		ts, err := rankcube.TableScanQuery(bg, rel, q.cond, q.f, q.k)
		if err != nil {
			t.Fatalf("query %d scan: %v", i, err)
		}
		checkScores(t, ts, want)
	}
}

func TestMergeTopKPublicAPI(t *testing.T) {
	rel := buildDemo(t, 5000)
	indices := []rankcube.Index{
		rankcube.BuildBTree(rel, 0),
		rankcube.BuildBTree(rel, 1),
	}
	f := rankcube.SqDist([]int{0, 1}, []float64{0.2, 0.8})
	for _, js := range []bool{false, true} {
		got, err := rankcube.MergeQuery(bg, rel, indices, f, 15, rankcube.MergeOptions{JoinSignature: js})
		if err != nil {
			t.Fatal(err)
		}
		checkScores(t, got, apiBrute(rel, nil, f, 15))
	}
}

func TestRTreeMergePublicAPI(t *testing.T) {
	rel := rankcube.GenerateRelation(4000, 2, 4, 4, rankcube.Uniform, 78)
	indices := []rankcube.Index{
		rankcube.BuildRTree(rel, []int{0, 1}),
		rankcube.BuildRTree(rel, []int{2, 3}),
	}
	f := rankcube.SqDist([]int{0, 1, 2, 3}, []float64{0.1, 0.2, 0.3, 0.4})
	got, err := rankcube.MergeQuery(bg, rel, indices, f, 10, rankcube.MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkScores(t, got, apiBrute(rel, nil, f, 10))
}

func TestInsertDeleteThroughPublicAPI(t *testing.T) {
	rel := buildDemo(t, 2000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	tid, err := cube.InsertTuple(bg, []int32{1, 1, 1}, []float64{0.001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Query(bg, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].TID != tid {
		t.Fatalf("inserted near-zero tuple not top-1: %v", res)
	}
	if ok, err := cube.DeleteTuple(bg, tid); err != nil || !ok {
		t.Fatalf("delete failed: ok=%v err=%v", ok, err)
	}
	res, err = cube.Query(bg, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 1 && res[0].TID == tid {
		t.Fatal("deleted tuple still returned")
	}
}

func TestScannerOrdered(t *testing.T) {
	rel := buildDemo(t, 3000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	sc, err := cube.OpenScan(bg, rankcube.Cond{0: 2}, rankcube.Sum(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	prev := math.Inf(-1)
	count := 0
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.Score < prev {
			t.Fatalf("scanner out of order: %v after %v", r.Score, prev)
		}
		prev = r.Score
		count++
	}
	want := 0
	for i := 0; i < rel.Len(); i++ {
		if rel.Sel(rankcube.TID(i), 0) == 2 {
			want++
		}
	}
	if count != want {
		t.Fatalf("scanner yielded %d tuples, want %d", count, want)
	}
}

func TestSkylinePublicAPI(t *testing.T) {
	rel := buildDemo(t, 4000)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	eng := rankcube.NewSkylineEngine(cube)
	sky, snap, err := eng.Query(bg, rankcube.Cond{0: 1}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	// Pairwise non-domination of the returned set.
	for i := range sky {
		for j := range sky {
			if i == j {
				continue
			}
			if dominatesAPI(sky[i].Coord, sky[j].Coord) {
				t.Fatalf("skyline member %d dominates member %d", i, j)
			}
		}
	}
	// Drill down and roll up round-trip.
	sub, snap2, err := eng.DrillDownQuery(bg, snap, rankcube.Cond{1: 2})
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := eng.RollUpQuery(bg, snap2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(sky) {
		t.Fatalf("roll-up returned %d points, original query %d", len(back), len(sky))
	}
	_ = sub
}

func dominatesAPI(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

func TestJoinPublicAPI(t *testing.T) {
	r1 := buildDemo(t, 1000)
	r2 := rankcube.GenerateRelation(1000, 3, 2, 5, rankcube.Uniform, 79)
	c1 := rankcube.BuildSignatureCube(r1, rankcube.SigOptions{})
	c2 := rankcube.BuildSignatureCube(r2, rankcube.SigOptions{})
	keys1 := make([]int32, r1.Len())
	keys2 := make([]int32, r2.Len())
	for i := range keys1 {
		keys1[i] = int32(i % 50)
	}
	for i := range keys2 {
		keys2[i] = int32(i % 50)
	}
	j1 := rankcube.NewJoinRelation("r1", r1, c1, keys1, 50)
	j2 := rankcube.NewJoinRelation("r2", r2, c2, keys2, 50)
	res, err := rankcube.JoinQuery(bg, []rankcube.JoinPart{
		{Rel: j1, Cond: rankcube.Cond{0: 1}, F: rankcube.Sum(0, 1)},
		{Rel: j2, Cond: rankcube.Cond{}, F: rankcube.Sum(0, 1)},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("join returned %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score < res[i-1].Score {
			t.Fatal("join results out of order")
		}
	}
	// Verify each joined pair shares its key and matches the condition.
	for _, r := range res {
		if keys1[r.TIDs[0]] != keys2[r.TIDs[1]] {
			t.Fatal("joined pair has mismatched keys")
		}
		if r1.Sel(r.TIDs[0], 0) != 1 {
			t.Fatal("joined tuple violates condition")
		}
	}
}

func TestForestCoverShape(t *testing.T) {
	rel := rankcube.ForestCover(5000, 1)
	schema := rel.Schema()
	if schema.S() != 12 || schema.R() != 3 {
		t.Fatalf("ForestCover shape %d/%d, want 12/3", schema.S(), schema.R())
	}
	if schema.SelCard[0] != 255 || schema.SelCard[11] != 2 {
		t.Fatalf("cardinality profile %v", schema.SelCard)
	}
}

func TestGridCubeMaintenanceAPI(t *testing.T) {
	rel := buildDemo(t, 2000)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 100})
	tid, err := cube.InsertTuple(bg, []int32{1, 1, 1}, []float64{0.0001, 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cube.Query(bg, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 1)
	if err != nil || len(res) != 1 || res[0].TID != tid {
		t.Fatalf("inserted tuple not found: %v %v", res, err)
	}
	if ok, err := cube.DeleteTuple(bg, tid); err != nil || !ok {
		t.Fatalf("delete failed: ok=%v err=%v", ok, err)
	}
	if cube.PendingMaintenance() != 2 {
		t.Fatalf("PendingMaintenance = %d", cube.PendingMaintenance())
	}
	remap, err := cube.Repartition(bg)
	if err != nil {
		t.Fatal(err)
	}
	if cube.PendingMaintenance() != 0 {
		t.Fatal("maintenance not folded")
	}
	if _, moved := remap[tid]; moved {
		t.Fatal("deleted tuple still mapped")
	}
}

func TestGroupingHelpersAPI(t *testing.T) {
	rel := rankcube.GenerateRelation(3000, 6, 2, 5, rankcube.Uniform, 80)
	groups := rankcube.GroupsFromWorkload([][]int{{0, 5}, {0, 5}, {2, 3}}, 6, 2)
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{Groups: groups, BlockSize: 100})
	res, err := cube.Query(bg, rankcube.Cond{0: 1, 5: 2}, rankcube.Sum(0, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	checkScores(t, res, apiBrute(rel, rankcube.Cond{0: 1, 5: 2}, rankcube.Sum(0, 1), 5))
	byCard := rankcube.GroupsByCardinality(rel.Schema(), 2, 4)
	if len(byCard) == 0 {
		t.Fatal("no groups")
	}
}
