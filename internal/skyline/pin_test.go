package skyline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/gridtree"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// navigationPin is the sha256 of what the skyline search answers, reads and
// counts over the chains of TestSkylineNavigationIsPinned.
const navigationPin = "07a980412dee8b0400089da0526ca33b209e995521a5be794a75c4d895e87ccc"

// pinHash feeds uint64s to a sha256.
type pinHash struct{ hash.Hash }

func (h pinHash) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// step hashes one request: its members (TID and coordinate bits, in emission
// order), the reads charged to every structure, the entries pruned by
// domination, the states generated and examined and the peak heap.
func (h pinHash) step(res []Result, ctr *stats.Counters) {
	h.put(uint64(len(res)))
	for _, r := range res {
		h.put(uint64(r.TID))
		for _, v := range r.Coord {
			h.put(math.Float64bits(v))
		}
	}
	for s := stats.Structure(0); s <= stats.StructTable; s++ {
		h.put(uint64(ctr.Reads(s)))
	}
	h.put(uint64(ctr.DominationPruned))
	h.put(uint64(ctr.StatesGenerated))
	h.put(uint64(ctr.StatesExamined))
	h.put(uint64(ctr.PeakHeap))
}

// lattice is a tie-heavy relation: every rank is one of five levels, so
// tuples share points and nodes share corners, and tuple 0 sits on the
// all-minimum point with every selection value 0.
func lattice(n int, seed int64) *table.Table {
	cards := []int{4, 4, 4}
	tb := table.MustNew(table.Schema{SelNames: []string{"a", "b", "c"}, SelCard: cards, RankNames: []string{"x", "y", "z"}})
	rng := rand.New(rand.NewSource(seed))
	tb.Append([]int32{0, 0, 0}, []float64{0, 0, 0})
	sel, rank := make([]int32, 3), make([]float64, 3)
	for tb.Len() < n {
		for d, c := range cards {
			sel[d] = int32(rng.Intn(c))
		}
		for d := range rank {
			rank[d] = float64(rng.Intn(5)) / 4
		}
		tb.Append(sel, rank)
	}
	return tb
}

// TestSkylineNavigationIsPinned hashes, over navigation chains, what the
// skyline search answers (TIDs and coordinates in emission order), the reads
// it charges to every structure, what it prunes by domination, the states it
// generates and examines and its peak heap. The chains: query → drill →
// drill, query → roll → drill and query → drill → roll → drill. The relations:
// uniform, anti-correlated, and a tie-heavy lattice whose all-minimum point
// equals the best corner of every node that holds it.
// Each over an R-tree and a grid partition, for a static and a dynamic
// skyline. A change to what a snapshot keeps, or to how navigation rebuilds
// its heap from it, must leave all of it alone, tie order included.
func TestSkylineNavigationIsPinned(t *testing.T) {
	h := pinHash{sha256.New()}
	rels := []*table.Table{
		table.Generate(table.GenSpec{T: 3000, S: 3, R: 3, Card: 4, Dist: table.Uniform, Seed: 601}),
		table.Generate(table.GenSpec{T: 3000, S: 3, R: 3, Card: 4, Dist: table.AntiCorrelated, Seed: 602}),
		lattice(2000, 603),
	}
	requests := 0
	for ri, tb := range rels {
		grid := gridtree.Build(tb, []int{0, 1, 2}, ranking.NewBox(tb.RankBounds()), gridtree.Config{Fanout: 9, BlockSize: 40})
		engines := []*Engine{
			NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 9}})),
			NewEngine(sigcube.BuildOnTree(tb, grid, sigcube.Config{})),
		}
		rng := rand.New(rand.NewSource(int64(611 + ri)))
		for _, e := range engines {
			for _, target := range [][]float64{nil, {0.4, 0.6, 0.5}} {
				for c := 0; c < 4; c++ {
					v := func() int32 { return int32(rng.Intn(4)) }
					if c == 0 {
						// The lattice's all-minimum tuple matches.
						v = func() int32 { return 0 }
					}
					do := func(res []Result, snap *Snapshot, err error, ctr *stats.Counters) *Snapshot {
						t.Helper()
						if err != nil {
							t.Fatal(err)
						}
						h.step(res, ctr)
						requests++
						return snap
					}
					query := func(cond core.Cond) *Snapshot {
						ctr := stats.New()
						res, snap, err := e.Skyline(Query{Cond: cond, Dims: []int{0, 1, 2}, Target: target}, ctr)
						return do(res, snap, err, ctr)
					}
					drill := func(prev *Snapshot, cond core.Cond) *Snapshot {
						ctr := stats.New()
						res, snap, err := e.DrillDown(prev, cond, ctr)
						return do(res, snap, err, ctr)
					}
					roll := func(prev *Snapshot, dims ...int) *Snapshot {
						ctr := stats.New()
						res, snap, err := e.RollUp(prev, dims, ctr)
						return do(res, snap, err, ctr)
					}
					// query → drill → drill
					drill(drill(query(core.Cond{}), core.Cond{0: v()}), core.Cond{1: v()})
					// query → roll → drill. In the first round the drill-down
					// leaves the all-minimum tuple out, so on the lattice what
					// it dominated in the roll-up is re-entered.
					rolled := roll(query(core.Cond{0: v(), 1: v()}), 1)
					z := v()
					if c == 0 {
						z = 1
					}
					drill(rolled, core.Cond{2: z})
					// query → drill → roll → drill
					drill(roll(drill(query(core.Cond{0: v()}), core.Cond{1: v()}), 0), core.Cond{2: v()})
				}
			}
		}
	}
	if requests != 3*2*2*4*10 {
		t.Fatalf("%d requests, want %d", requests, 3*2*2*4*10)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != navigationPin {
		t.Fatalf("navigation answers, reads or counts differently: hash %s, pinned %s", got, navigationPin)
	}
}
