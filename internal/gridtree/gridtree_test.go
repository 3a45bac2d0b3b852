package gridtree

import (
	"math/rand"
	"slices"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func build(t *testing.T, n int, seed int64, fanout int) (*table.Table, *Tree) {
	t.Helper()
	tb := table.Generate(table.GenSpec{T: n, S: 2, R: 2, Card: 5, Seed: seed})
	tr := Build(tb, []int{0, 1}, ranking.UnitBox(2), Config{Fanout: fanout, BlockSize: 50})
	return tb, tr
}

func TestBuildCoversAllTuples(t *testing.T) {
	tb, tr := build(t, 5000, 161, 16)
	seen := map[table.TID]bool{}
	nb := ranking.NewBox(make([]float64, 2), make([]float64, 2))
	var walk func(id hindex.NodeID, box ranking.Box)
	walk = func(id hindex.NodeID, box ranking.Box) {
		tr.NodeRect(id, nb.Lo, nb.Hi)
		for d := 0; d < 2; d++ {
			if nb.Lo[d] < box.Lo[d]-1e-9 || nb.Hi[d] > box.Hi[d]+1e-9 {
				t.Fatalf("node %d escapes parent box", id)
			}
		}
		if tr.IsLeaf(id) {
			for _, le := range tr.LeafEntries(id) {
				if seen[le.TID] {
					t.Fatalf("tuple %d duplicated", le.TID)
				}
				seen[le.TID] = true
				for d := 0; d < 2; d++ {
					if le.Point[d] < nb.Lo[d]-1e-9 || le.Point[d] > nb.Hi[d]+1e-9 {
						t.Fatalf("tuple %d outside its leaf box", le.TID)
					}
				}
			}
			return
		}
		for _, ch := range tr.Children(id) {
			walk(ch.ID, ch.Box)
		}
	}
	walk(tr.Root(), tr.Domain())
	if len(seen) != tb.Len() {
		t.Fatalf("covered %d tuples, want %d", len(seen), tb.Len())
	}
}

func TestNodeWidthsWithinFanout(t *testing.T) {
	_, tr := build(t, 8000, 162, 16)
	for id := 0; id < tr.NumNodes(); id++ {
		if w := tr.NumChildren(hindex.NodeID(id)); w > tr.MaxFanout() {
			t.Fatalf("node %d width %d exceeds reported fanout %d", id, w, tr.MaxFanout())
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d", tr.Height())
	}
}

func TestDeterministicConstruction(t *testing.T) {
	_, a := build(t, 2000, 164, 16)
	_, b := build(t, 2000, 164, 16)
	for i := 0; i < 2000; i += 13 {
		tid := table.TID(i)
		if !slices.Equal(a.TuplePath(tid), b.TuplePath(tid)) {
			t.Fatalf("construction not deterministic at tuple %d", tid)
		}
	}
}

// TestSignatureCubeOverGridPartition is the §4.1.2 interchangeability
// claim: the signature ranking cube gives identical answers over the grid
// hierarchy and the R-tree.
func TestSignatureCubeOverGridPartition(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 8000, S: 3, R: 2, Card: 6, Seed: 165})
	grid := Build(tb, []int{0, 1}, ranking.UnitBox(2), Config{Fanout: 32, BlockSize: 100})
	cubeGrid := sigcube.BuildOnTree(tb, grid, sigcube.Config{})
	cubeRTree := sigcube.Build(tb, sigcube.Config{})

	rng := rand.New(rand.NewSource(166))
	for trial := 0; trial < 15; trial++ {
		cond := core.Cond{rng.Intn(3): int32(rng.Intn(6))}
		f := ranking.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
		k := 1 + rng.Intn(15)
		a, err := cubeGrid.TopK(cond, f, k, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		b, err := cubeRTree.TopK(cond, f, k, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("grid partition returned %d results, R-tree %d", len(a), len(b))
		}
		for i := range a {
			if diff := a[i].Score - b[i].Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("result %d: grid %v vs rtree %v", i, a[i].Score, b[i].Score)
			}
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{2}, RankNames: []string{"x", "y"}})
	tr := Build(tb, []int{0, 1}, ranking.UnitBox(2), Config{})
	if tr.Root() != hindex.InvalidNode || tr.Height() != 0 {
		t.Fatal("empty build produced structure")
	}
}
