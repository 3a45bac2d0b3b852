package skyline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
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
const navigationPin = "e37d4794dbfe17507ed9701229eccdb9f6579ced0f5181a9a4e7c0ba6b204c93"

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

// keptRoot reports whether a snapshot kept the partition's root (SID 0) among
// the entries it pruned by domination.
func keptRoot(s *Snapshot) bool { return slices.Contains(s.pruned, 0) }

// TestSkylineNavigationIsPinned hashes, over navigation chains, what the
// skyline search answers (TIDs and coordinates in emission order), the reads
// it charges to every structure, what it prunes by domination, the states it
// generates and examines and its peak heap. The chains: query → drill →
// drill, query → roll → drill and query → drill → roll → drill. The relations:
// uniform, anti-correlated, and a tie-heavy lattice whose all-minimum point
// makes a roll-up seed prune the root, which a later drill-down re-enters.
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
	requests, rootReentered := 0, false
	for ri, tb := range rels {
		grid := gridtree.Build(tb, []int{0, 1, 2}, ranking.NewBox(tb.RankBounds()), gridtree.Config{Fanout: 9, BlockSize: 40})
		engines := []*Engine{
			NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 9}})),
			NewEngine(sigcube.BuildOnTree(tb, grid, sigcube.Config{})),
		}
		rng := rand.New(rand.NewSource(int64(611 + ri)))
		for ei, e := range engines {
			for _, target := range [][]float64{nil, {0.4, 0.6, 0.5}} {
				for c := 0; c < 4; c++ {
					v := func() int32 { return int32(rng.Intn(4)) }
					if c == 0 {
						// The lattice's all-minimum tuple matches: its roll-up
						// prunes the root.
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
					// leaves the all-minimum tuple out, so on the lattice it
					// re-enters the root its roll-up pruned.
					rolled := roll(query(core.Cond{0: v(), 1: v()}), 1)
					z := v()
					if c == 0 {
						z = 1
					}
					drilled := drill(rolled, core.Cond{2: z})
					if ri == 2 && ei == 0 && target == nil && c == 0 {
						rootReentered = keptRoot(rolled) && !keptRoot(drilled)
					}
					// query → drill → roll → drill
					drill(roll(drill(query(core.Cond{0: v()}), core.Cond{1: v()}), 0), core.Cond{2: v()})
				}
			}
		}
	}
	if requests != 3*2*2*4*10 {
		t.Fatalf("%d requests, want %d", requests, 3*2*2*4*10)
	}
	if !rootReentered {
		t.Fatal("the lattice's roll-up kept no root entry, or its drill-down did not re-enter it: no chain resolves SID 0")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != navigationPin {
		t.Fatalf("navigation answers, reads or counts differently: hash %s, pinned %s", got, navigationPin)
	}
}
