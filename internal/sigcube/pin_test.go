package sigcube_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/joinquery"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// searchStatesPin is the sha256 of what the signature search answers, reads
// and counts over the matrix of TestSearchStatesArePinned.
const searchStatesPin = "e668f6085e3e4cc97843d8b38e95249163f713a96f183164ab2e02b55a07b6f2"

// pinHash feeds uint64s to a sha256.
type pinHash struct{ hash.Hash }

func (h pinHash) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// counters hashes the reads charged to every structure and the search's state
// counters.
func (h pinHash) counters(ctr *stats.Counters) {
	for s := stats.Structure(0); s <= stats.StructTable; s++ {
		h.put(uint64(ctr.Reads(s)))
	}
	h.put(uint64(ctr.StatesGenerated))
	h.put(uint64(ctr.StatesExamined))
	h.put(uint64(ctr.Pruned))
	h.put(uint64(ctr.PeakHeap))
}

func (h pinHash) results(res []core.Result) {
	h.put(uint64(len(res)))
	for _, r := range res {
		h.put(uint64(r.TID))
		h.put(math.Float64bits(r.Score))
	}
}

// TestSearchStatesArePinned hashes, over a seeded request matrix, what the
// signature search answers (tid and score bits), the reads it charges to
// every structure, the states it generates and examines, the child slots it
// prunes and its peak heap. The matrix: an exact and a lossy cube; no
// predicate, one cell and a two-cell conjunction; a linear, a distance, a
// general and a flat (all-tied) function; k ∈ {1, 10, 100}, a 50-pull scan
// per condition and function, and a two-part rank join per condition. A change
// to how the search keeps its candidates must leave all of it alone, tie order
// included.
func TestSearchStatesArePinned(t *testing.T) {
	h := pinHash{sha256.New()}
	funcs := []ranking.Func{
		ranking.Linear([]int{0, 1, 2}, []float64{1, 2.5, 0.5}),
		ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.7, 0.5}),
		ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(2, ranking.Var(0)), ranking.Add(ranking.Var(1), ranking.Var(2))))),
		ranking.Linear([]int{0}, []float64{0}),
	}
	spec := table.GenSpec{T: 4000, S: 3, R: 3, Card: 4}
	requests := 0
	for ci, lossy := range []bool{false, true} {
		spec.Seed = int64(431 + ci)
		tb := table.Generate(spec)
		cube := sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 9}, LossySignatures: lossy})
		other := table.Generate(table.GenSpec{T: 1500, S: 2, R: 3, Card: 4, Seed: int64(441 + ci)})
		rels := []*joinquery.Relation{
			keyedRelation("r", tb, cube, 60, int64(451+ci)),
			keyedRelation("s", other, sigcube.Build(other, sigcube.Config{RTree: rtree.Config{Fanout: 9}, LossySignatures: lossy}), 60, int64(461+ci)),
		}
		rng := rand.New(rand.NewSource(int64(471 + ci)))
		for c := 0; c < 9; c++ {
			cond := core.Cond{}
			for _, d := range rng.Perm(3)[:c%3] {
				cond[d] = int32(rng.Intn(4))
			}
			for _, f := range funcs {
				for _, k := range []int{1, 10, 100} {
					ctr := stats.New()
					res, err := cube.TopK(cond, f, k, ctr)
					if err != nil {
						t.Fatal(err)
					}
					h.results(res)
					h.counters(ctr)
					requests++
				}
				ctr := stats.New()
				sc, err := cube.Scan(cond, f, ctr)
				if err != nil {
					t.Fatal(err)
				}
				var pulled []core.Result
				for len(pulled) < 50 {
					r, ok := sc.Next()
					if !ok {
						break
					}
					pulled = append(pulled, r)
				}
				h.results(pulled)
				h.counters(ctr)
				requests++
			}
			ctr := stats.New()
			joined, err := joinquery.Execute(joinquery.Query{K: 10, Parts: []joinquery.Part{
				{Rel: rels[0], Cond: cond, F: funcs[c%len(funcs)]},
				{Rel: rels[1], Cond: core.Cond{c % 2: int32(c % 4)}, F: ranking.Sum(0, 1)},
			}}, joinquery.Options{}, ctr)
			if err != nil {
				t.Fatal(err)
			}
			h.put(uint64(len(joined)))
			for _, r := range joined {
				for _, tid := range r.TIDs {
					h.put(uint64(tid))
				}
				h.put(math.Float64bits(r.Score))
			}
			h.counters(ctr)
			requests++
		}
	}
	if requests != 306 {
		t.Fatalf("%d requests, want 306", requests)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchStatesPin {
		t.Fatalf("the search answers, reads or counts differently: hash %s, pinned %s", got, searchStatesPin)
	}
}

// keyedRelation gives every tuple of tb a seeded join key in [0, keyCard).
func keyedRelation(name string, tb *table.Table, cube *sigcube.Cube, keyCard int, seed int64) *joinquery.Relation {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int32, tb.Len())
	for i := range keys {
		keys[i] = int32(rng.Intn(keyCard))
	}
	return joinquery.NewRelation(name, tb, cube, keys, keyCard)
}
