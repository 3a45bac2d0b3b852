package baselines

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func brute(t *table.Table, cond core.Cond, f ranking.Func, k int) []core.Result {
	var all []core.Result
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
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

func fixture() (*table.Table, *HeapFile) {
	tb := table.Generate(table.GenSpec{T: 8000, S: 3, R: 2, Card: 5, Seed: 101})
	return tb, NewHeapFile(tb, 0)
}

func randCond(rng *rand.Rand) core.Cond {
	cond := core.Cond{}
	for _, d := range rng.Perm(3)[:1+rng.Intn(2)] {
		cond[d] = int32(rng.Intn(5))
	}
	return cond
}

func TestAllBaselinesAgree(t *testing.T) {
	tb, h := fixture()
	ts := NewTableScan(h)
	bf := NewBooleanFirst(h)
	rf := BuildRankingFirst(h, rtree.Config{Fanout: 16})
	rm := NewRankMapping(tb, 0)

	rng := rand.New(rand.NewSource(102))
	funcs := []ranking.Func{
		ranking.Sum(0, 1),
		ranking.Linear([]int{0, 1}, []float64{2, 5}),
		ranking.SqDist([]int{0, 1}, []float64{0.3, 0.8}),
	}
	for trial := 0; trial < 15; trial++ {
		cond := randCond(rng)
		f := funcs[trial%len(funcs)]
		k := 1 + rng.Intn(15)
		want := brute(tb, cond, f, k)
		sameScores(t, ts.TopK(cond, f, k, stats.New()), want)
		sameScores(t, bf.TopK(cond, f, k, stats.New()), want)
		sameScores(t, rf.TopK(cond, f, k, stats.New()), want)
		sameScores(t, rm.TopK(cond, f, k, stats.New()), want)
	}
}

func TestTableScanChargesFullScan(t *testing.T) {
	_, h := fixture()
	ts := NewTableScan(h)
	ctr := stats.New()
	ts.TopK(core.Cond{0: 1}, ranking.Sum(0, 1), 5, ctr)
	if got := ctr.Reads(stats.StructTable); got != int64(h.NumPages()) {
		t.Fatalf("table reads = %d, want full scan %d", got, h.NumPages())
	}
}

func TestBooleanFirstIOScalesWithSelectivity(t *testing.T) {
	tb, h := fixture()
	bf := NewBooleanFirst(h)
	f := ranking.Sum(0, 1)
	// One condition: ~T/5 candidates; three conditions: ~T/125.
	one := stats.New()
	bf.TopK(core.Cond{0: 1}, f, 10, one)
	three := stats.New()
	bf.TopK(core.Cond{0: 1, 1: 2, 2: 3}, f, 10, three)
	if three.TotalReads() >= one.TotalReads() {
		t.Fatalf("3-cond I/O (%d) not below 1-cond I/O (%d)", three.TotalReads(), one.TotalReads())
	}
	_ = tb
}

func TestRankingFirstReadsFewBlocksForSmallK(t *testing.T) {
	_, h := fixture()
	rf := BuildRankingFirst(h, rtree.Config{})
	ctr := stats.New()
	rf.TopK(core.Cond{}, ranking.Sum(0, 1), 1, ctr)
	if got := ctr.Reads(stats.StructRTree); got > 20 {
		t.Fatalf("R-tree reads = %d for top-1, expected a handful", got)
	}
}

func TestOptimalBoxLinearMatchesThesisExample(t *testing.T) {
	// Thesis §3.5.1: kth score 100 under N1 + 2·N2 gives n1 = 100, n2 = 50
	// (over a domain starting at 0).
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{2}, RankNames: []string{"n1", "n2"}})
	tb.Append([]int32{0}, []float64{0, 0})
	tb.Append([]int32{0}, []float64{200, 200})
	f := ranking.Linear([]int{0, 1}, []float64{1, 2})
	box := OptimalBox(tb, f, 100)
	if box.Hi[0] != 100 || box.Hi[1] != 50 {
		t.Fatalf("box = %v..%v, want hi = [100, 50]", box.Lo, box.Hi)
	}
}

func TestOptimalBoxSoundProperty(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 2000, S: 1, R: 2, Card: 2, Seed: 103})
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 50; trial++ {
		f := ranking.Linear([]int{0, 1}, []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2})
		kth := rng.Float64() * 2
		box := OptimalBox(tb, f, kth)
		buf := make([]float64, 2)
		for i := 0; i < tb.Len(); i++ {
			row := tb.RankRow(table.TID(i), buf)
			if f.Eval(row) <= kth && !box.Contains(row) {
				t.Fatalf("tuple with score %v ≤ %v outside optimal box", f.Eval(row), kth)
			}
		}
	}
}

func TestRankMappingPrefixVsNonPrefix(t *testing.T) {
	tb, _ := fixture()
	rm := NewRankMapping(tb, 0)
	f := ranking.Sum(0, 1)
	// Prefix-bound condition scans a narrow segment.
	pre := stats.New()
	rm.TopK(core.Cond{0: 1}, f, 10, pre)
	// Non-prefix condition (dimension 2 only) scans the whole index.
	non := stats.New()
	rm.TopK(core.Cond{2: 1}, f, 10, non)
	if pre.TotalReads() >= non.TotalReads() {
		t.Fatalf("prefix scan (%d reads) not cheaper than non-prefix (%d)", pre.TotalReads(), non.TotalReads())
	}
}

func TestHeapFilePaging(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 1000, S: 2, R: 2, Card: 3, Seed: 105})
	h := NewHeapFile(tb, 4096)
	rows := 4096 / tb.RowBytes()
	wantPages := (1000 + rows - 1) / rows
	if h.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", h.NumPages(), wantPages)
	}
	if h.PageOf(0) != 0 || h.PageOf(table.TID(rows)) != 1 {
		t.Fatal("PageOf mapping wrong")
	}
}
