package gridcube

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// gridSearchPin is the sha256 of TestGridSearchIsPinned's requests: every
// result (tid and score bits), the reads of every structure and the peak heap.
const gridSearchPin = "5184134fc786acc73f9f4bc634b3d71ff183f32d991e3be6d60ecbd2d5c90575"

// TestGridSearchIsPinned hashes what the grid cube's search answers and
// charges over the layouts it distinguishes — the full cube and one-dimension
// fragments, cells as (bid, tid) runs and delta-compressed, two and three
// ranking dimensions — for one function of each family, conditions from none
// through an absent cell to all three dimensions, and three k, on the cube as
// built, after inserts, deletes and a brand-new cell, and after a
// repartition. A change to the block loop that moves one answer, one read or
// the peak heap of one request fails here.
func TestGridSearchIsPinned(t *testing.T) {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	requests := 0
	for _, frag := range []int{0, 1} {
		for _, packed := range []bool{false, true} {
			for _, r := range []int{2, 3} {
				const s, card = 3, 8
				tb := table.Generate(table.GenSpec{T: 4000, S: s, R: r, Card: card, SelZipf: 1.2, Seed: int64(71 + r)})
				c := Build(tb, Config{BlockSize: 40, FragmentSize: frag, CompressLists: packed})
				fresh := absentCombo(t, tb)
				attrs, w, p := make([]int, r), make([]float64, r), make([]float64, r)
				for d := range attrs {
					attrs[d], w[d], p[d] = d, 1+float64(d)/2, 0.2+0.25*float64(d)
				}
				funcs := []ranking.Func{
					ranking.Linear(attrs, w),
					ranking.SqDist(attrs, p),
					ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(1.5, ranking.Var(0)), ranking.Var(1)))),
					ranking.Constrained(ranking.Linear(attrs, w), 0, 0.3, 0.45),
				}
				some := tb.SelRow(table.TID(17), make([]int32, s))
				conds := []core.Cond{{}, {}, {1: some[1]}, {0: some[0], 2: some[2]}, {0: some[0], 1: some[1], 2: some[2]}}
				for d, v := range fresh {
					conds[1][d] = v
				}
				rng := rand.New(rand.NewSource(int64(81 + 4*frag + 2*r)))
				for _, phase := range []string{"built", "maintained", "repartitioned"} {
					switch phase {
					case "maintained":
						maintain(c, fresh, rng)
					case "repartitioned":
						c.Repartition()
					}
					for fi, f := range funcs {
						for ci, cond := range conds {
							for _, k := range []int{1, 10, 100} {
								ctr := stats.New()
								res, err := c.TopK(Query{Cond: cond, F: f, K: k}, ctr)
								if err != nil {
									t.Fatalf("F=%d packed=%v R=%d %s f%d c%d k=%d: %v", frag, packed, r, phase, fi, ci, k, err)
								}
								put(uint64(len(res)))
								for _, r := range res {
									put(uint64(r.TID))
									put(math.Float64bits(r.Score))
								}
								for st := stats.Structure(0); st <= stats.StructTable; st++ {
									put(uint64(ctr.Reads(st)))
								}
								put(uint64(ctr.PeakHeap))
								requests++
							}
						}
					}
				}
			}
		}
	}
	if requests != 1440 {
		t.Fatalf("%d requests, want 1440", requests)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != gridSearchPin {
		t.Fatalf("the grid search answers or charges differently: hash %s, pinned %s", got, gridSearchPin)
	}
}
