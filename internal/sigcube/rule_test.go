package sigcube

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// TestTestOnlyTesterChargesStagedReads pins the equality the benchmark's
// traced pass depends on (its twin replays every request through a Test-only
// timing wrapper and fails unless reads match the public path): whatever the
// cube's own tester charges through TopK and Scan, the same tester with its
// bit vectors hidden charges too — per structure, request by request, and
// after every tuple of a part-drained scan.
func TestTestOnlyTesterChargesStagedReads(t *testing.T) {
	for si := range refSpecs {
		for _, pageSize := range refPageSizes {
			cases, rng := refCases(si, pageSize)
			for _, rc := range cases {
				for ci, cond := range rc.conds {
					for fname, f := range refFuncs(rng) {
						checkHidden(t, fmt.Sprintf("%s cond#%d %v %s", rc.name, ci, cond, fname), rc, cond, f, rng)
					}
				}
			}
		}
	}
}

// checkHidden puts cond under f to the cube's TopK and Scan and, with the
// tester behind testOnly, to a scanner of its own: the same tuples, the same
// reads.
func checkHidden(t *testing.T, what string, rc refCase, cond core.Cond, f ranking.Func, rng *rand.Rand) {
	t.Helper()
	rt, matches, hidden := rc.cube.Tree(), rc.matches(cond, nil), wrapped(rc.cell(t, cond))
	if tester, _ := hidden(stats.New()); tester == nil {
		if res, err := rc.cube.TopK(cond, f, 1, stats.New()); err != nil || len(res) != 0 {
			t.Fatalf("%s: %d results from an empty cell (%v)", what, len(res), err)
		}
		return
	}
	for _, k := range []int{1, 10, matches + 5} {
		stagedCtr, hiddenCtr := stats.New(), stats.New()
		staged, err := rc.cube.TopK(cond, f, k, stagedCtr)
		if err != nil {
			t.Fatalf("%s k=%d: %v", what, k, err)
		}
		tester, verify := hidden(hiddenCtr)
		if got := newScanner(rt, tester, verify, f, hiddenCtr).take(k); !reflect.DeepEqual(got, staged) {
			t.Fatalf("%s k=%d: Test-only %v, staged %v", what, k, got, staged)
		}
		sameReads(t, fmt.Sprintf("%s k=%d", what, k), hiddenCtr, stagedCtr)
	}

	stagedCtr, hiddenCtr := stats.New(), stats.New()
	staged, err := rc.cube.Scan(cond, f, stagedCtr)
	if err != nil {
		t.Fatalf("%s scan: %v", what, err)
	}
	tester, verify := hidden(hiddenCtr)
	sc := newScanner(rt, tester, verify, f, hiddenCtr)
	for n, limit := 0, scanLimit(rng, matches); n < limit; n++ {
		g, gok := sc.Next()
		w, wok := staged.Next()
		if gok != wok || g != w {
			t.Fatalf("%s scan: tuple %d: Test-only %v/%v, staged %v/%v", what, n, g, gok, w, wok)
		}
		sameReads(t, fmt.Sprintf("%s scan after %d tuples", what, n+1), hiddenCtr, stagedCtr)
		if !gok {
			break
		}
	}
}

// TestConjunctionReadsUsefulPages is what the rule promises a conjunction
// assembled from atomic cuboids. Every leaf page it charges holds a live tuple
// matching the whole conjunction — the leaf's own bits were consulted before
// its page was. What it reads of the partition beyond a cube that materializes
// the conjunction's cell is internal nodes only (the slot-wise AND is still an
// over-approximation there), with the same answer: results are invariant under
// the choice of cuboids. And over the requests of the test it reads less in
// total than the letter of Alg. 3; per request only the partition reads are
// promised, since a look-ahead may load a partial the letter never needed.
func TestConjunctionReadsUsefulPages(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 6000, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.Uniform, SelZipf: 1.2, Seed: 81})
	fanout := rtree.Config{Fanout: 12}
	atomic := Build(tb, Config{RTree: fanout, Cuboids: [][]int{{0}, {1}, {2}}})
	withCell := Build(tb, Config{RTree: fanout, Cuboids: [][]int{{0}, {1}, {2}, {0, 1}}})
	rt := atomic.rt

	var leaves []hindex.NodeID
	internal := 0
	var walk func(id hindex.NodeID)
	walk = func(id hindex.NodeID) {
		if rt.IsLeaf(id) {
			leaves = append(leaves, id)
			return
		}
		internal++
		for _, ch := range rt.Children(id) {
			walk(ch.ID)
		}
	}
	walk(rt.Root())

	funcs := map[string]ranking.Func{
		"linear": ranking.Linear([]int{0, 1, 2}, []float64{1, 0.5, 2}),
		"sqdist": ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.6, 0.5}),
	}
	var total, letterTotal int64
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 4; b++ {
			cond := core.Cond{0: a, 1: b}
			for fname, f := range funcs {
				for _, k := range []int{1, 10, 50} {
					what := fmt.Sprintf("%v %s k=%d", cond, fname, k)
					ctr := stats.New()
					tester, any, err := atomic.TesterFor(cond, ctr)
					if err != nil || !any {
						t.Fatalf("%s: any=%v err=%v", what, any, err)
					}
					sc := newScanner(rt, tester, nil, f, ctr)
					got := sc.take(k)
					charged := 0
					for _, leaf := range leaves {
						if !sc.acc.Retrieved(leaf) {
							continue
						}
						charged++
						useful := false
						for _, le := range rt.LeafEntries(leaf) {
							useful = useful || tb.Matches(le.TID, cond)
						}
						if !useful {
							t.Fatalf("%s: leaf %d was read and holds no matching tuple", what, leaf)
						}
					}
					if charged == 0 {
						t.Fatalf("%s: no leaf read", what)
					}

					cellCtr := stats.New()
					want, err := withCell.TopK(cond, f, k, cellCtr)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: atomic cuboids %v, materialized cell %v (%v)", what, got, want, err)
					}
					extra := ctr.Reads(stats.StructRTree) - cellCtr.Reads(stats.StructRTree)
					if extra < 0 || extra > int64(internal) {
						t.Fatalf("%s: %d R-tree reads over atomic cuboids, %d over the cell: want 0 to %d (the internal nodes) more",
							what, ctr.Reads(stats.StructRTree), cellCtr.Reads(stats.StructRTree), internal)
					}

					letterCtr := stats.New()
					tester, _, _ = atomic.TesterFor(cond, letterCtr)
					newRefScanner(rt, tester, nil, f, false, letterCtr).topK(k)
					total += ctr.TotalReads()
					letterTotal += letterCtr.TotalReads()
				}
			}
		}
	}
	if total >= letterTotal {
		t.Fatalf("%d reads in total, the letter of Alg. 3 %d: the rule saved nothing", total, letterTotal)
	}
	t.Logf("%d leaves, %d internal nodes; %d reads in total, Alg. 3 %d", len(leaves), internal, total, letterTotal)
}
