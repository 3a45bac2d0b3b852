package hindex_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rankcube/internal/btree"
	"rankcube/internal/gridtree"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/table"
)

// shapedTree is what a shape dump reads: the index contract plus the node
// count, so nodes a delete detached are dumped too.
type shapedTree interface {
	hindex.Index
	NumNodes() int
}

type shapeHash struct{ h hash.Hash }

func (s shapeHash) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		s.h.Write(b[:])
	}
}

func (s shapeHash) floats(vs []float64) {
	for _, v := range vs {
		s.ints(int(math.Float64bits(v)))
	}
}

func (s shapeHash) tids(vs []table.TID) {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	s.ints(len(vs))
	for _, v := range vs {
		s.ints(int(v))
	}
}

func (s shapeHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// dumpShape writes the canonical dump of a tree: root, height, fanout, the
// root's box, then per node its leaf flag, parent and slot in it (-1 for the
// root and for nodes maintenance detached), and every entry in slot order —
// child and full-width box, or tuple and full-width point, as IEEE bits — and
// last the bytes its store accounts for. A node is named by its id, which is
// its page, and nodes are dumped in id order; with byRank (the grid partition,
// whose leaf ids follow a map's iteration order and differ from build to
// build) by its preorder rank, in preorder.
func dumpShape(t *testing.T, s shapeHash, idx shapedTree, byRank bool) {
	r := idx.Domain().Dims()
	type link struct{ parent, slot int }
	links := make(map[hindex.NodeID]link)
	var preorder []hindex.NodeID
	if root := idx.Root(); root != hindex.InvalidNode {
		var walk func(id hindex.NodeID)
		walk = func(id hindex.NodeID) {
			preorder = append(preorder, id)
			if idx.IsLeaf(id) {
				return
			}
			for slot := 0; slot < idx.NumChildren(id); slot++ {
				kid := idx.ChildAt(id, slot)
				links[kid] = link{int(id), slot}
				walk(kid)
			}
		}
		walk(root)
	}
	order := make([]hindex.NodeID, idx.NumNodes())
	for i := range order {
		order[i] = hindex.NodeID(i)
	}
	name := func(id hindex.NodeID) int { return int(id) }
	if byRank {
		if len(preorder) != len(order) {
			t.Fatalf("%d of %d nodes reachable from the root", len(preorder), len(order))
		}
		order = preorder
		name = func(id hindex.NodeID) int { return slices.Index(preorder, id) }
	}

	s.ints(name(idx.Root()), idx.Height(), idx.MaxFanout(), idx.NumNodes())
	if root := idx.Root(); root != hindex.InvalidNode {
		nb := idx.NodeBox(root, idx.Domain().Clone())
		s.floats(nb.Lo)
		s.floats(nb.Hi)
	}
	box := ranking.NewBox(make([]float64, r), make([]float64, r))
	pt := make([]float64, r)
	for _, id := range order {
		if int(idx.Page(id)) != int(id) {
			t.Fatalf("node %d is on page %d", id, idx.Page(id))
		}
		l, ok := links[id]
		if !ok {
			l = link{-1, -1}
		} else {
			l.parent = name(hindex.NodeID(l.parent))
		}
		leaf := 0
		if idx.IsLeaf(id) {
			leaf = 1
		}
		n := idx.NumChildren(id)
		s.ints(name(id), leaf, l.parent, l.slot, n)
		for slot := 0; slot < n; slot++ {
			if leaf == 1 {
				s.ints(int(idx.EntryPoint(id, slot, pt)))
				s.floats(pt)
				continue
			}
			s.ints(name(idx.EntryBox(id, slot, box)))
			s.floats(box.Lo)
			s.floats(box.Hi)
		}
	}
	s.ints(int(idx.Store().Bytes()))
}

// churn runs a seeded 300 inserts and 300 deletes over rt, hashing every
// affected set and the tree between the two, and reports how often the root
// split and collapsed. Half the deletes take a tuple under the root's last
// entry, so that the root runs out of entries and collapses.
func churn(t *testing.T, s shapeHash, rt *rtree.Tree, live []table.TID, points *table.Table) (splits, collapses int) {
	rng := rand.New(rand.NewSource(77))
	next := table.TID(len(live))
	for i := 0; i < 300; i++ {
		h := rt.Height()
		s.tids(rt.Insert(next, points.RankRow(table.TID(i), nil)))
		live = append(live, next)
		next++
		if rt.Height() > h {
			splits++
		}
	}
	dumpShape(t, s, rt, false)
	pt := make([]float64, rt.Domain().Dims())
	for i := 0; i < 300; i++ {
		var victim table.TID
		if rng.Intn(2) == 0 {
			id := rt.Root()
			for !rt.IsLeaf(id) {
				id = rt.ChildAt(id, rt.NumChildren(id)-1)
			}
			victim = rt.EntryPoint(id, 0, pt)
		} else {
			victim = live[rng.Intn(len(live))]
		}
		live = slices.DeleteFunc(live, func(t table.TID) bool { return t == victim })
		h := rt.Height()
		affected, ok := rt.Delete(victim)
		if !ok {
			panic("churn: victim not in the tree")
		}
		s.tids(affected)
		if rt.Height() < h {
			collapses++
		}
	}
	return splits, collapses
}

// TestTreeShapesArePinned holds every builder, and the R-tree's maintenance,
// to the trees they built when the hashes below were recorded: node ids
// (= page ids), slot order, boxes and points to the bit, page accounting.
// Every reads_per_query of the benchmark, the reference oracles and the
// traced twin hang on these shapes; a change that moves a hash changes them.
func TestTreeShapesArePinned(t *testing.T) {
	want := map[string]string{
		"btree.Build":                     "0c14177d1a214d1b23ba356dda15d53e10619988d73928f6cd0d14bfbd735404",
		"btree.Build/default":             "68bd26a6056200ed9af083eaedec77546fc4bb50256da0d0600f46fee3d070b3",
		"gridtree.Build":                  "cff96f22e859a7b26e1d6240229f3f9477b7b5eba272fe53c87d3c292ccd3e50",
		"gridtree.Build/default":          "45a51811029efcde7bcb9e7b06d39c50887899f31a6d8526a6e70be90ed860f0",
		"rtree.Bulk+churn":                "d7ef263a3c5e8d4146613bf5a6eba009832acdbd2c2d25dde0924befdfdff830",
		"rtree.Bulk/uniform/anti/default": "45276db2c5c51eaccc32bdce5ca7ced028d39afde5e47182f670219636c16c13",
		"rtree.Bulk/uniform/anti/fanout9": "6d603ff7f3f5dcbe2d3bc8e2f2f5fb808a92b87596afd47592c38cf64c2b76e8",
		"rtree.Bulk/uniform/corr/default": "402e82b449fc1f03ab6118aa890bfe7b7450185daf0518556ce8dd64190a2ef5",
		"rtree.Bulk/uniform/corr/fanout9": "3e9740a63f0c2ce9186bc511692665100ba5aaadb97875e48d4896d0fbc46348",
		"rtree.Bulk/zipf/anti/default":    "ecfe58427c0df936c088a7d62e1d6679304e0987980e1f8a7981ff807c99190b",
		"rtree.Bulk/zipf/anti/fanout9":    "53ee39ea375a8aa7c4060231948525543c4cb8918d0340bb592faabbc135bccb",
		"rtree.Bulk/zipf/corr/default":    "ce70a73e39f712a5e3cd050c203f177f3a39bc183f496bd6a20e6b2a58fe64df",
		"rtree.Bulk/zipf/corr/fanout9":    "c1a9dd36c527691801545c468ad7333343cbcddae4684a0bd37bd0a7d1680eff",
	}
	got := map[string]string{}
	pin := func(name string, dump func(s shapeHash)) {
		s := shapeHash{sha256.New()}
		dump(s)
		got[name] = s.sum()
	}
	domain := ranking.NewBox([]float64{0, 0, -2}, []float64{1, 1, 4})
	for _, sel := range []struct {
		name string
		zipf float64
	}{{"uniform", 0}, {"zipf", 1.2}} {
		for _, dist := range []struct {
			name string
			d    table.Distribution
		}{{"corr", table.Correlated}, {"anti", table.AntiCorrelated}} {
			tb := table.Generate(table.GenSpec{T: 4000, S: 2, R: 3, Card: 8, Dist: dist.d, SelZipf: sel.zipf, Seed: 23})
			for _, cfg := range []struct {
				name string
				c    rtree.Config
			}{{"default", rtree.Config{}}, {"fanout9", rtree.Config{Fanout: 9}}} {
				pin("rtree.Bulk/"+sel.name+"/"+dist.name+"/"+cfg.name, func(s shapeHash) {
					dumpShape(t, s, rtree.Bulk(tb, []int{0, 1}, domain, cfg.c), false)
				})
			}
		}
	}
	tb := table.Generate(table.GenSpec{T: 60, S: 1, R: 3, Card: 4, Seed: 29})
	extra := table.Generate(table.GenSpec{T: 300, S: 1, R: 3, Card: 4, Seed: 31})
	pin("rtree.Bulk+churn", func(s shapeHash) {
		rt := rtree.Bulk(tb, []int{0, 2}, domain, rtree.Config{Fanout: 5})
		live := make([]table.TID, tb.Len())
		for i := range live {
			live[i] = table.TID(i)
		}
		splits, collapses := churn(t, s, rt, live, extra)
		if splits == 0 || collapses == 0 {
			t.Fatalf("churn made %d root splits and %d root collapses, want both", splits, collapses)
		}
		dumpShape(t, s, rt, false)
	})
	tb = table.Generate(table.GenSpec{T: 3000, S: 1, R: 3, Card: 4, Seed: 5})
	pin("gridtree.Build", func(s shapeHash) {
		dumpShape(t, s, gridtree.Build(tb, []int{0, 1}, domain, gridtree.Config{Fanout: 9, BlockSize: 30}), true)
	})
	pin("gridtree.Build/default", func(s shapeHash) {
		dumpShape(t, s, gridtree.Build(tb, []int{1, 2}, domain, gridtree.Config{}), true)
	})
	pin("btree.Build", func(s shapeHash) {
		dumpShape(t, s, btree.Build(tb, 1, domain, btree.Config{Fanout: 9}), false)
	})
	pin("btree.Build/default", func(s shapeHash) {
		dumpShape(t, s, btree.Build(tb, 2, domain, btree.Config{}), false)
	})
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%q: %q,", name, h)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d hashes recorded, %d trees dumped", len(want), len(got))
	}
}
