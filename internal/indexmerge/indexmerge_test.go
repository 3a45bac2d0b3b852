package indexmerge

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func fixture(t *testing.T, n int, seed int64, fanout int) (*table.Table, []hindex.Index) {
	t.Helper()
	tb := table.Generate(table.GenSpec{T: n, S: 1, R: 2, Card: 4, Seed: seed})
	dom := ranking.UnitBox(2)
	a := btree.Build(tb, 0, dom, btree.Config{Fanout: fanout})
	b := btree.Build(tb, 1, dom, btree.Config{Fanout: fanout})
	return tb, []hindex.Index{a, b}
}

func brute(t *table.Table, f ranking.Func, k int) []core.Result {
	var all []core.Result
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		score := f.Eval(t.RankRow(table.TID(i), buf))
		if math.IsInf(score, 1) {
			continue
		}
		all = append(all, core.Result{TID: table.TID(i), Score: score})
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

// queryFuncs returns the three controlled functions of §5.4.2: fs (semi-
// monotone nearest neighbor), fg (general), fc (constrained).
func queryFuncs(rng *rand.Rand) []ranking.Func {
	fs := ranking.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
	fg := ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	lo := rng.Float64() * 0.5
	fc := ranking.Constrained(ranking.Sum(0, 1), 1, lo, lo+0.3)
	return []ranking.Func{fs, fg, fc}
}

func TestBaselineMergeMatchesBrute(t *testing.T) {
	tb, idx := fixture(t, 3000, 81, 8)
	rng := rand.New(rand.NewSource(82))
	for _, f := range queryFuncs(rng) {
		got, err := TopK(idx, f, 10, Options{Strategy: StrategyBL}, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameScores(t, got, brute(tb, f, 10))
	}
}

func TestProgressiveMergeMatchesBrute(t *testing.T) {
	tb, idx := fixture(t, 5000, 83, 8)
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 3; trial++ {
		for _, f := range queryFuncs(rng) {
			k := 1 + rng.Intn(50)
			got, err := TopK(idx, f, k, Options{Strategy: StrategyPE}, stats.New())
			if err != nil {
				t.Fatal(err)
			}
			sameScores(t, got, brute(tb, f, k))
		}
	}
}

func TestMonotoneLinear(t *testing.T) {
	tb, idx := fixture(t, 4000, 85, 16)
	f := ranking.Linear([]int{0, 1}, []float64{1, 2})
	got, err := TopK(idx, f, 20, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, brute(tb, f, 20))
	// Negative weights exercise descending direction ordering.
	f2 := ranking.Linear([]int{0, 1}, []float64{1, -1})
	got2, err := TopK(idx, f2, 20, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got2, brute(tb, f2, 20))
}

// thresholdOnly hides a function's (semi-)monotonicity, so the merge takes
// threshold expansion where it would take neighborhood expansion.
type thresholdOnly struct{ ranking.Func }

func TestNeighborhoodVsThresholdAgree(t *testing.T) {
	tb, idx := fixture(t, 4000, 86, 8)
	f := ranking.SqDist([]int{0, 1}, []float64{0.31, 0.77})
	a, err := TopK(idx, f, 25, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopK(idx, thresholdOnly{f}, 25, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, a, b)
	sameScores(t, a, brute(tb, f, 25))
}

func TestRTreeMerge(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 4000, S: 1, R: 4, Card: 4, Seed: 87})
	dom := ranking.UnitBox(4)
	a := rtree.Bulk(tb, []int{0, 1}, dom, rtree.Config{Fanout: 16})
	b := rtree.Bulk(tb, []int{2, 3}, dom, rtree.Config{Fanout: 16})
	f := ranking.SqDist([]int{0, 1, 2, 3}, []float64{0.2, 0.4, 0.6, 0.8})
	got, err := TopK([]hindex.Index{a, b}, f, 15, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, brute(tb, f, 15))
}

func TestThreeWayMerge(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 1, R: 3, Card: 4, Seed: 88})
	dom := ranking.UnitBox(3)
	var idx []hindex.Index
	for d := 0; d < 3; d++ {
		idx = append(idx, btree.Build(tb, d, dom, btree.Config{Fanout: 8}))
	}
	f := ranking.SqDist([]int{0, 1, 2}, []float64{0.5, 0.1, 0.9})
	got, err := TopK(idx, f, 10, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, brute(tb, f, 10))
}

func TestJoinSignatureBuild(t *testing.T) {
	tb, idx := fixture(t, 2000, 89, 8)
	js, err := BuildJoinSignature(idx, tb.Len(), JoinSigConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(js.states) == 0 {
		t.Fatal("no state-signatures built")
	}
	// Root state must exist and accept every tuple's own combo.
	rootPaths := [][]int{{}, {}}
	tester, ok := js.Load(rootPaths, stats.New())
	if !ok {
		t.Fatal("root state missing")
	}
	for i := 0; i < 50; i++ {
		tid := table.TID(i)
		s0 := idx[0].(*btree.Tree).LeafPath(tid)
		s1 := idx[1].(*btree.Tree).LeafPath(tid)
		if !tester.MayContain([]int{s0[0] - 1, s1[0] - 1}) {
			t.Fatalf("root signature rejects occupied combo of tuple %d", tid)
		}
	}
}

func TestJoinSignaturePruningCorrect(t *testing.T) {
	tb, idx := fixture(t, 5000, 90, 8)
	js, err := BuildJoinSignature(idx, tb.Len(), JoinSigConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 3; trial++ {
		for _, f := range queryFuncs(rng) {
			k := 1 + rng.Intn(40)
			got, err := TopK(idx, f, k, Options{Pruner: js}, stats.New())
			if err != nil {
				t.Fatal(err)
			}
			sameScores(t, got, brute(tb, f, k))
		}
	}
}

func TestJoinSignatureReducesStates(t *testing.T) {
	tb, idx := fixture(t, 20000, 92, 32)
	js, err := BuildJoinSignature(idx, tb.Len(), JoinSigConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	plain := stats.New()
	if _, err := TopK(idx, f, 50, Options{}, plain); err != nil {
		t.Fatal(err)
	}
	pruned := stats.New()
	if _, err := TopK(idx, f, 50, Options{Pruner: js}, pruned); err != nil {
		t.Fatal(err)
	}
	if pruned.Reads(stats.StructBTree) > plain.Reads(stats.StructBTree) {
		t.Fatalf("PE+SIG read more index blocks (%d) than PE (%d)",
			pruned.Reads(stats.StructBTree), plain.Reads(stats.StructBTree))
	}
}

func TestPairwisePrunerThreeWay(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 4000, S: 1, R: 3, Card: 4, Seed: 93})
	dom := ranking.UnitBox(3)
	var idx []hindex.Index
	for d := 0; d < 3; d++ {
		idx = append(idx, btree.Build(tb, d, dom, btree.Config{Fanout: 8}))
	}
	pairs := map[[2]int]*JoinSignature{}
	for _, pr := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		js, err := BuildJoinSignature([]hindex.Index{idx[pr[0]], idx[pr[1]]}, tb.Len(), JoinSigConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pairs[pr] = js
	}
	f := ranking.SqDist([]int{0, 1, 2}, []float64{0.8, 0.2, 0.5})
	got, err := TopK(idx, f, 20, Options{Pruner: &PairwisePruner{Pairs: pairs}}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, brute(tb, f, 20))
}

func TestPEGeneratesFewerStatesThanBL(t *testing.T) {
	// Table 5.1's qualitative claim: the improved merge generates far
	// fewer states and issues fewer disk accesses.
	tb, idx := fixture(t, 10000, 94, 32)
	f := ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	bl := stats.New()
	a, err := TopK(idx, f, 100, Options{Strategy: StrategyBL}, bl)
	if err != nil {
		t.Fatal(err)
	}
	pe := stats.New()
	b, err := TopK(idx, f, 100, Options{Strategy: StrategyPE}, pe)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, a, b)
	sameScores(t, a, brute(tb, f, 100))
	if pe.StatesGenerated >= bl.StatesGenerated {
		t.Fatalf("PE generated %d states, BL %d", pe.StatesGenerated, bl.StatesGenerated)
	}
}

func TestUncoveredDimensionRejected(t *testing.T) {
	_, idx := fixture(t, 100, 95, 8)
	f := ranking.Sum(0, 1, 2) // dim 2 not indexed
	if _, err := TopK(idx, f, 5, Options{}, stats.New()); err == nil {
		t.Fatal("uncovered ranking dimension accepted")
	}
}

func TestPartialAttributesInRanking(t *testing.T) {
	// Fig. 5.18's scenario: the function references a subset of the indexed
	// dimensions.
	tb := table.Generate(table.GenSpec{T: 3000, S: 1, R: 4, Card: 4, Seed: 96})
	dom := ranking.UnitBox(4)
	a := rtree.Bulk(tb, []int{0, 1}, dom, rtree.Config{Fanout: 16})
	b := rtree.Bulk(tb, []int{2, 3}, dom, rtree.Config{Fanout: 16})
	f := ranking.SqDist([]int{0, 2}, []float64{0.3, 0.6}) // one dim per index
	got, err := TopK([]hindex.Index{a, b}, f, 10, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, brute(tb, f, 10))
}

func TestNeighborhoodExpansionEngages(t *testing.T) {
	// For a monotone linear function over value-ordered B-trees, the
	// neighborhood expansion should generate no more states than the
	// general threshold expansion (§5.2.2's purpose).
	tb, idx := fixture(t, 20000, 97, 32)
	f := ranking.Linear([]int{0, 1}, []float64{1, 2})
	nb := stats.New()
	a, err := TopK(idx, f, 50, Options{}, nb)
	if err != nil {
		t.Fatal(err)
	}
	th := stats.New()
	b, err := TopK(idx, thresholdOnly{f}, 50, Options{}, th)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, a, b)
	sameScores(t, a, brute(tb, f, 50))
	if nb.StatesGenerated > th.StatesGenerated {
		t.Fatalf("neighborhood generated %d states, threshold %d",
			nb.StatesGenerated, th.StatesGenerated)
	}
}

func TestMergeEmptyIndexReturnsNil(t *testing.T) {
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{2}, RankNames: []string{"x", "y"}})
	dom := ranking.UnitBox(2)
	idx := []hindex.Index{
		btree.Build(tb, 0, dom, btree.Config{}),
		btree.Build(tb, 1, dom, btree.Config{}),
	}
	got, err := TopK(idx, ranking.Sum(0, 1), 5, Options{}, stats.New())
	if err != nil || got != nil {
		t.Fatalf("empty merge: %v %v", got, err)
	}
}

func TestMergeKLargerThanData(t *testing.T) {
	tb, idx := fixture(t, 200, 98, 8)
	got, err := TopK(idx, ranking.Sum(0, 1), 500, Options{}, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != tb.Len() {
		t.Fatalf("k>n returned %d of %d tuples", len(got), tb.Len())
	}
}
