package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// rankingFirstPin is the sha256 of what RankingFirst.TopK returns and charges
// over the matrix of TestRankingFirstIsPinned.
const rankingFirstPin = "359e8c2f2cdebfa493b12596aca2f0eae19755e2aa6e29b19208f6db118f87de"

// TestRankingFirstIsPinned hashes, for 1 800 seeded requests (three ranking
// distributions × two fanouts × 25 conditions × three function families × k
// ∈ {0, 1, 10, 100}), the results (tid and score bits), the reads charged to
// every structure and the peak heap. States are left out: the count is the
// search's bookkeeping, not what the baseline answers or reads.
func TestRankingFirstIsPinned(t *testing.T) {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	funcs := []ranking.Func{
		ranking.Linear([]int{0, 1, 2}, []float64{1, 2.5, 0.5}),
		ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.7, 0.5}),
		ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(2, ranking.Var(0)), ranking.Add(ranking.Var(1), ranking.Var(2))))),
	}
	requests := 0
	for di, dist := range []table.Distribution{table.Uniform, table.Correlated, table.AntiCorrelated} {
		tb := table.Generate(table.GenSpec{T: 3000, S: 3, R: 3, Card: 4, Dist: dist, Seed: int64(301 + di)})
		heap := NewHeapFile(tb, 0)
		for _, fanout := range []int{0, 9} {
			rf := BuildRankingFirst(heap, rtree.Config{Fanout: fanout})
			rng := rand.New(rand.NewSource(int64(311 + 2*di + fanout)))
			for c := 0; c < 25; c++ {
				cond := core.Cond{}
				for _, d := range rng.Perm(3)[:c%4] {
					cond[d] = int32(rng.Intn(4))
				}
				for _, f := range funcs {
					for _, k := range []int{0, 1, 10, 100} {
						ctr := stats.New()
						res := rf.TopK(cond, f, k, ctr)
						put(uint64(len(res)))
						for _, r := range res {
							put(uint64(r.TID))
							put(math.Float64bits(r.Score))
						}
						for s := stats.Structure(0); s <= stats.StructTable; s++ {
							put(uint64(ctr.Reads(s)))
						}
						put(uint64(ctr.PeakHeap))
						requests++
					}
				}
			}
		}
	}
	if requests != 1800 {
		t.Fatalf("%d requests, want 1800", requests)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rankingFirstPin {
		t.Fatalf("RankingFirst answers or charges differently: hash %s, pinned %s", got, rankingFirstPin)
	}
}
