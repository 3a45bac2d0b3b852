package sigcube

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/gridtree"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func bruteTopK(t *table.Table, cond core.Cond, f ranking.Func, k int, alive func(table.TID) bool) []core.Result {
	var all []core.Result
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
		if alive != nil && !alive(tid) {
			continue
		}
		if !t.Matches(tid, cond) {
			continue
		}
		score := f.Eval(t.RankRow(tid, buf))
		if math.IsInf(score, 1) {
			continue
		}
		all = append(all, core.Result{TID: tid, Score: score})
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

func sameScores(t *testing.T, got, want []core.Result) {
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

func TestTopKMatchesBruteForce(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 10000, S: 3, R: 2, Card: 6, Seed: 61})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 16}})
	rng := rand.New(rand.NewSource(62))
	funcs := []ranking.Func{
		ranking.Sum(0, 1),
		ranking.Linear([]int{0, 1}, []float64{3, 1}),
		ranking.SqDist([]int{0, 1}, []float64{0.2, 0.9}),
		ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1))))),
	}
	for trial := 0; trial < 25; trial++ {
		cond := core.Cond{}
		for _, d := range rng.Perm(3)[:1+rng.Intn(2)] {
			cond[d] = int32(rng.Intn(6))
		}
		f := funcs[trial%len(funcs)]
		k := 1 + rng.Intn(20)
		got, err := cube.TopK(cond, f, k, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, got, bruteTopK(tb, cond, f, k, nil))
	}
}

func TestTopKNoCondition(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 2, R: 2, Card: 4, Seed: 63})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 12}})
	f := ranking.Sum(0, 1)
	got, err := cube.TopK(core.Cond{}, f, 10, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, bruteTopK(tb, core.Cond{}, f, 10, nil))
}

func TestTopKEmptyCell(t *testing.T) {
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{5}, RankNames: []string{"x", "y"}})
	for i := 0; i < 100; i++ {
		tb.Append([]int32{int32(i % 2)}, []float64{float64(i) / 100, 0.5})
	}
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 8}})
	// Value 4 never occurs: empty-cell fast path.
	got, err := cube.TopK(core.Cond{0: 4}, ranking.Sum(0, 1), 5, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty cell returned %d results", len(got))
	}
}

func TestMaterializedMultiDimCuboid(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 5000, S: 3, R: 2, Card: 4, Seed: 64})
	cube := Build(tb, Config{
		RTree:   rtree.Config{Fanout: 16},
		Cuboids: [][]int{{0}, {1}, {2}, {0, 1}},
	})
	cond := core.Cond{0: 1, 1: 2}
	f := ranking.Sum(0, 1)
	got, err := cube.TopK(cond, f, 10, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, bruteTopK(tb, cond, f, 10, nil))
	if cube.Cuboid([]int{0, 1}) == nil {
		t.Fatal("multi-dim cuboid not materialized")
	}
}

// TestSignaturePruningReducesIO orders the three searches by what they read of
// the partition. The thesis' "Ranking" baseline has no tester: it checks the
// predicate on each tuple it reaches. Alg. 3 tests a node's bit when it pops
// it; the scanner, before it reads a node, the bits of its children — which on
// one cell is the same thing, and on a conjunction of atomic cells is not.
func TestSignaturePruningReducesIO(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 20000, S: 2, R: 2, Card: 50, Seed: 65})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 32}})
	f := ranking.Sum(0, 1)
	for _, cond := range []core.Cond{{0: 7}, {0: tb.Sel(0, 0), 1: tb.Sel(0, 1)}} {
		want := bruteTopK(tb, cond, f, 10, nil)
		withSig := stats.New()
		res, err := cube.TopK(cond, f, 10, withSig)
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, res, want)

		rankingFirst := stats.New()
		matches := func(tid table.TID) bool { return tb.Matches(tid, cond) }
		sameScores(t, newScanner(cube.Tree(), signature.True{}, matches, f, rankingFirst).take(10), want)

		letter := stats.New()
		tester, _, err := cube.TesterFor(cond, letter)
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, newRefScanner(cube.Tree(), tester, nil, f, false, letter).topK(10), want)

		sig, alg3, ranked := withSig.Reads(stats.StructRTree), letter.Reads(stats.StructRTree), rankingFirst.Reads(stats.StructRTree)
		if sig > alg3 || len(cond) > 1 && sig == alg3 || alg3 >= ranked {
			t.Fatalf("%v: the scanner read %d R-tree blocks, Alg. 3 %d, ranking-first %d", cond, sig, alg3, ranked)
		}
	}
}

func TestInsertMaintainsSignatures(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 2000, S: 2, R: 2, Card: 4, Seed: 66})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 8}})
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 300; i++ {
		sel := []int32{int32(rng.Intn(4)), int32(rng.Intn(4))}
		rank := []float64{rng.Float64(), rng.Float64()}
		cube.Insert(sel, rank, stats.New())
	}
	// After inserts, queries must still match brute force on the grown
	// relation.
	f := ranking.Sum(0, 1)
	for v := int32(0); v < 4; v++ {
		got, err := cube.TopK(core.Cond{0: v}, f, 15, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, got, bruteTopK(cube.Table(), core.Cond{0: v}, f, 15, nil))
	}
}

func TestInsertTriggersRootSplitSafely(t *testing.T) {
	// Tiny fanout forces deep trees and root splits during the insert loop.
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{3}, RankNames: []string{"x", "y"}})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 4}})
	rng := rand.New(rand.NewSource(68))
	for i := 0; i < 400; i++ {
		cube.Insert([]int32{int32(rng.Intn(3))}, []float64{rng.Float64(), rng.Float64()}, stats.New())
	}
	f := ranking.SqDist([]int{0, 1}, []float64{0.5, 0.5})
	for v := int32(0); v < 3; v++ {
		got, err := cube.TopK(core.Cond{0: v}, f, 10, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, got, bruteTopK(cube.Table(), core.Cond{0: v}, f, 10, nil))
	}
}

func TestDeleteMaintainsSignatures(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 1500, S: 2, R: 2, Card: 3, Seed: 69})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 8}})
	deleted := make(map[table.TID]bool)
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < 500; i++ {
		tid := table.TID(rng.Intn(1500))
		if cube.Delete(tid, stats.New()) {
			deleted[tid] = true
		}
	}
	f := ranking.Sum(0, 1)
	alive := func(tid table.TID) bool { return !deleted[tid] }
	for v := int32(0); v < 3; v++ {
		got, err := cube.TopK(core.Cond{1: v}, f, 10, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, got, bruteTopK(cube.Table(), core.Cond{1: v}, f, 10, alive))
	}
}

// TestDeleteThroughRootCollapse deletes the tuples under the root's last
// entry until the root, down to two, collapses into the other one: every
// surviving path loses its first position, and the maintained cube must know
// it — it answers like a cube built from the surviving rows.
func TestDeleteThroughRootCollapse(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 120, S: 2, R: 2, Card: 3, Seed: 73})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 4}})
	rt, height := cube.rt, cube.rt.Height()
	if height < 3 {
		t.Fatalf("height %d, want a root above internal nodes", height)
	}
	var under func(id hindex.NodeID, tids []table.TID) []table.TID
	under = func(id hindex.NodeID, tids []table.TID) []table.TID {
		if rt.IsLeaf(id) {
			for _, le := range rt.LeafEntries(id) {
				tids = append(tids, le.TID)
			}
			return tids
		}
		for _, ch := range rt.Children(id) {
			tids = under(ch.ID, tids)
		}
		return tids
	}
	deleted := make(map[table.TID]bool)
	for rt.Height() == height {
		for _, tid := range under(rt.ChildAt(rt.Root(), rt.NumChildren(rt.Root())-1), nil) {
			if !cube.Delete(tid, stats.New()) {
				t.Fatalf("tuple %d under the root is not in the cube", tid)
			}
			deleted[tid] = true
		}
	}
	rebuilt, err := table.New(tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Len(); i++ {
		if tid := table.TID(i); !deleted[tid] {
			rebuilt.Append(tb.SelRow(tid, nil), tb.RankRow(tid, nil))
			if got, want := core.IntsKey(cube.path(tid)), core.IntsKey(rt.TuplePath(tid)); got != want {
				t.Fatalf("tuple %d: the cube holds path %v, the tree %v", tid, cube.path(tid), rt.TuplePath(tid))
			}
		}
	}
	if rebuilt.Len() == 0 || rt.Height() != height-1 {
		t.Fatalf("height %d → %d over %d rows, want one level less over some", height, rt.Height(), rebuilt.Len())
	}
	fresh := Build(rebuilt, Config{RTree: rtree.Config{Fanout: 4}})
	f := ranking.Sum(0, 1)
	for d := 0; d < 2; d++ {
		for v := int32(0); v < 3; v++ {
			got, err := cube.TopK(core.Cond{d: v}, f, 10, stats.New())
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.TopK(core.Cond{d: v}, f, 10, stats.New())
			if err != nil {
				t.Fatal(err)
			}
			sameScores(t, got, want)
		}
	}
}

func TestBaselineCodingBigger(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 5000, S: 1, R: 2, Card: 20, Seed: 71})
	adaptive := Build(tb, Config{RTree: rtree.Config{Fanout: 32}})
	baseline := Build(tb, Config{RTree: rtree.Config{Fanout: 32}, BaselineCoding: true})
	if adaptive.SizeBytes() > baseline.SizeBytes() {
		t.Fatalf("adaptive %d bytes > baseline %d bytes", adaptive.SizeBytes(), baseline.SizeBytes())
	}
}

func TestConstrainedFunctionPrunesToInf(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 1, R: 2, Card: 4, Seed: 72})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 16}})
	f := ranking.Constrained(ranking.Sum(0, 1), 1, 0.45, 0.55)
	got, err := cube.TopK(core.Cond{0: 2}, f, 8, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, bruteTopK(tb, core.Cond{0: 2}, f, 8, nil))
	for _, r := range got {
		y := tb.Rank(r.TID, 1)
		if y < 0.45 || y > 0.55 {
			t.Fatalf("result tuple %d outside constraint band (y=%v)", r.TID, y)
		}
	}
}

func TestLossySignaturesMatchExact(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 8000, S: 3, R: 2, Card: 6, Seed: 73})
	exact := Build(tb, Config{RTree: rtree.Config{Fanout: 16}})
	lossy := Build(tb, Config{RTree: rtree.Config{Fanout: 16}, LossySignatures: true})
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 15; trial++ {
		cond := core.Cond{rng.Intn(3): int32(rng.Intn(6))}
		f := ranking.Sum(0, 1)
		k := 1 + rng.Intn(15)
		a, err := exact.TopK(cond, f, k, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		b, err := lossy.TopK(cond, f, k, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, b, a)
	}
}

func TestLossyChargesVerificationIO(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 8000, S: 1, R: 2, Card: 10, Seed: 75})
	lossy := Build(tb, Config{RTree: rtree.Config{Fanout: 16}, LossySignatures: true})
	ctr := stats.New()
	if _, err := lossy.TopK(core.Cond{0: 3}, ranking.Sum(0, 1), 10, ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.Reads(stats.StructTable) == 0 {
		t.Fatal("lossy query did not charge verification accesses")
	}
}

func TestLossyScannerVerifiesTuples(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 4000, S: 1, R: 2, Card: 8, Seed: 76})
	lossy := Build(tb, Config{RTree: rtree.Config{Fanout: 16}, LossySignatures: true})
	sc, err := lossy.Scan(core.Cond{0: 3}, ranking.Sum(0, 1), stats.New())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	prev := -1.0
	for {
		r, ok := sc.Next()
		if !ok {
			break
		}
		if tb.Sel(r.TID, 0) != 3 {
			t.Fatalf("lossy scanner emitted non-matching tuple %d", r.TID)
		}
		if r.Score < prev {
			t.Fatal("scanner out of order")
		}
		prev = r.Score
		count++
	}
	want := 0
	for i := 0; i < tb.Len(); i++ {
		if tb.Sel(table.TID(i), 0) == 3 {
			want++
		}
	}
	if count != want {
		t.Fatalf("scanner yielded %d tuples, want %d", count, want)
	}
}

// TestMaintainOnGridPartitionAborts: grid partitions re-partition instead
// of maintaining incrementally (§1.3.1), so Insert on a grid-backed cube
// must fail with a typed ErrStructureUnavailable abort — which governed
// public callers convert into an error — never an untyped crash.
func TestMaintainOnGridPartitionAborts(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 1000, S: 2, R: 2, Card: 4, Seed: 9})
	grid := gridtree.Build(tb, []int{0, 1}, ranking.UnitBox(2), gridtree.Config{BlockSize: 100})
	cube := BuildOnTree(tb, grid, Config{})
	defer func() {
		err, ok := errs.IsAbort(recover())
		if !ok {
			t.Fatal("Insert on a grid partition did not abort")
		}
		if !errors.Is(err, errs.ErrStructureUnavailable) {
			t.Fatalf("abort err = %v, want ErrStructureUnavailable", err)
		}
	}()
	cube.Insert([]int32{0, 0}, []float64{0.5, 0.5}, stats.New())
	t.Fatal("unreachable: Insert returned")
}

// TestMaintenanceFreesRewrittenPages: a rewritten cell's old partial pages go
// back to the store, so after any amount of churn the store holds exactly the
// live cells' bytes.
func TestMaintenanceFreesRewrittenPages(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 2000, S: 2, R: 2, Card: 4, Seed: 77})
	cube := Build(tb, Config{PageSize: 256, RTree: rtree.Config{Fanout: 8}})
	liveBytes := func() int64 {
		var total int64
		for _, cb := range cube.cuboids {
			for _, stored := range cb.cells {
				for _, page := range pagesOf(stored, cube.store) {
					total += int64(len(page))
				}
			}
		}
		return total
	}
	if got, want := cube.SizeBytes(), liveBytes(); got != want {
		t.Fatalf("after build the store holds %d bytes, cells %d", got, want)
	}
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 300; i++ {
		if i%2 == 0 {
			cube.Insert([]int32{int32(rng.Intn(4)), int32(rng.Intn(4))}, []float64{rng.Float64(), rng.Float64()}, stats.New())
		} else {
			cube.Delete(table.TID(rng.Intn(tb.Len())), stats.New())
		}
	}
	if got, want := cube.SizeBytes(), liveBytes(); got != want {
		t.Fatalf("after churn the store holds %d bytes, live cells %d: rewritten pages leaked", got, want)
	}
	if bad := cube.store.VerifyPages(); len(bad) != 0 {
		t.Fatalf("pages %v fail verification after churn", bad)
	}
	f := ranking.Sum(0, 1)
	got, err := cube.TopK(core.Cond{0: 1, 1: 2}, f, 10, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, bruteTopK(tb, core.Cond{0: 1, 1: 2}, f, 10, cube.Alive))
}

// TestBloomCellChargesItsPageOnce: a filter has no per-node bit vector, so a
// lossy cube's tester offers no stages and is asked about one path at a time;
// however many paths a search puts to it, each cell's filter page is read once.
func TestBloomCellChargesItsPageOnce(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 2, R: 2, Card: 5, Seed: 79})
	lossy := Build(tb, Config{RTree: rtree.Config{Fanout: 8}, LossySignatures: true})
	ctr := stats.New()
	cond := core.Cond{0: 1, 1: 3}
	tester, any, err := lossy.TesterFor(cond, ctr)
	if err != nil || !any {
		t.Fatalf("TesterFor: any=%v err=%v", any, err)
	}
	if _, ok := signature.Stages(tester); ok {
		t.Fatal("bloom cells claim to have bit vectors to probe")
	}
	f := ranking.Sum(0, 1)
	got := SearchTopK(lossy.Tree(), tester, f, 3000, ctr)
	if ctr.StatesExamined < 100 {
		t.Fatalf("search examined %d states: too few to show anything", ctr.StatesExamined)
	}
	if reads := ctr.Reads(stats.StructSignature); reads != 2 {
		t.Fatalf("two filters charged %d page reads", reads)
	}
	// Unverified, the answer is a superset of the truth: no false negatives.
	want := bruteTopK(tb, cond, f, 3000, lossy.Alive)
	found := make(map[table.TID]bool, len(got))
	for _, r := range got {
		found[r.TID] = true
	}
	for _, r := range want {
		if !found[r.TID] {
			t.Fatalf("matching tuple %d missing from the lossy search", r.TID)
		}
	}
}
