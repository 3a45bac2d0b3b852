package rankcube_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rankcube"
)

// TestCrossEngineProperty drives both ranking-cube engines, the table-scan
// baseline, and index-merge with quick-generated workloads over randomly
// shaped relations, requiring identical score vectors everywhere. This is
// the repository's strongest end-to-end invariant: four independent
// implementations of the same query semantics must agree.
func TestCrossEngineProperty(t *testing.T) {
	prop := func(seed int64, shape uint8, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := 1 + int(shape)%3
		card := 2 + int(shape/4)%6
		n := 1500 + int(shape)*37
		rel := rankcube.GenerateRelation(n, s, 2, card, rankcube.Uniform, seed)
		grid := rankcube.BuildGridCube(rel, rankcube.GridOptions{BlockSize: 100})
		sig := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
		indices := []rankcube.Index{
			rankcube.BuildBTree(rel, 0),
			rankcube.BuildBTree(rel, 1),
		}

		k := 1 + int(kRaw)%20
		cond := rankcube.Cond{rng.Intn(s): int32(rng.Intn(card))}
		funcs := []rankcube.Func{
			rankcube.Sum(0, 1),
			rankcube.Linear([]int{0, 1}, []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}),
			rankcube.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()}),
			rankcube.General(rankcube.Sqr(rankcube.Sub(
				rankcube.Var(0), rankcube.Sqr(rankcube.Var(1))))),
		}
		for _, f := range funcs {
			want, err := rankcube.TableScanQuery(bg, rel, cond, f, k)
			if err != nil {
				t.Logf("scan: err=%v", err)
				return false
			}
			g, err := grid.Query(bg, cond, f, k)
			if err != nil || !scoresEqual(g, want) {
				t.Logf("grid mismatch: err=%v", err)
				return false
			}
			sg, err := sig.Query(bg, cond, f, k)
			if err != nil || !scoresEqual(sg, want) {
				t.Logf("sig mismatch: err=%v", err)
				return false
			}
			// Index merge answers the no-condition variant.
			wantAll, err := rankcube.TableScanQuery(bg, rel, nil, f, k)
			if err != nil {
				t.Logf("scan: err=%v", err)
				return false
			}
			mg, err := rankcube.MergeQuery(bg, rel, indices, f, k, rankcube.MergeOptions{})
			if err != nil || !scoresEqual(mg, wantAll) {
				t.Logf("merge mismatch: err=%v", err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func scoresEqual(a, b []rankcube.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// TestSkylineContainsTopKProperty ties the two preference-query engines
// together: for any linear function with positive weights, the top-1 tuple
// must be a skyline member of the same predicate cell (a classical
// relationship between ranking and skyline queries).
func TestSkylineContainsTopKProperty(t *testing.T) {
	prop := func(seed int64, w1Raw, w2Raw uint8) bool {
		rel := rankcube.GenerateRelation(3000, 2, 2, 4, rankcube.Uniform, seed)
		cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{Fanout: 16})
		eng := rankcube.NewSkylineEngine(cube)
		cond := rankcube.Cond{0: int32(seed&1 + 1)}
		w1 := 0.1 + float64(w1Raw)/64
		w2 := 0.1 + float64(w2Raw)/64
		f := rankcube.Linear([]int{0, 1}, []float64{w1, w2})

		top, err := cube.Query(bg, cond, f, 1)
		if err != nil || len(top) == 0 {
			return true // empty cell: nothing to check
		}
		sky, _, err := eng.Query(bg, cond, []int{0, 1}, nil)
		if err != nil {
			return false
		}
		for _, r := range sky {
			if r.TID == top[0].TID {
				return true
			}
		}
		// The top-1 tuple may tie with a skyline member on both coordinates;
		// accept coordinate-level membership too.
		x, y := rel.Rank(top[0].TID, 0), rel.Rank(top[0].TID, 1)
		for _, r := range sky {
			if r.Coord[0] == x && r.Coord[1] == y {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
