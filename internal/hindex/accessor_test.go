package hindex_test

import (
	"reflect"
	"testing"

	"rankcube/internal/btree"
	"rankcube/internal/gridtree"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func TestPathOfInvertsSID(t *testing.T) {
	var buf []int
	for _, m := range []int{2, 9, 204} {
		for _, path := range [][]int{{}, {1}, {m}, {1, m, 1}, {m, m, m, m}, {2, 1, 2, m}} {
			buf = hindex.PathOf(buf, hindex.SID(path, m), m)
			if len(buf) != len(path) || (len(path) > 0 && !reflect.DeepEqual(buf, path)) {
				t.Fatalf("M=%d: PathOf(SID(%v)) = %v", m, path, buf)
			}
		}
	}
}

// TestSlotAccessorsMatchMaterializedEntries holds, for each index, the
// one-slot-at-a-time accessors a search scores through to the materialized
// lists, entry by entry; checks that the lists' entries do not share storage
// with each other or with the accessor's scratch; that dimensions the index
// does not cover carry the domain (boxes) or its midpoint (points); and that
// a visit is charged once and scoring through the scratch allocates nothing.
func TestSlotAccessorsMatchMaterializedEntries(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 1, R: 3, Card: 4, Seed: 5})
	domain := ranking.NewBox([]float64{0, 0, -2}, []float64{1, 1, 4})
	for name, idx := range map[string]hindex.Index{
		"rtree":    rtree.Bulk(tb, []int{0, 1}, domain, rtree.Config{Fanout: 9}),
		"gridtree": gridtree.Build(tb, []int{0, 1}, domain, gridtree.Config{Fanout: 9, BlockSize: 30}),
		"btree":    btree.Build(tb, 1, domain, btree.Config{Fanout: 9}),
	} {
		covered := make(map[int]bool)
		for _, d := range idx.Dims() {
			covered[d] = true
		}
		ctr := stats.New()
		acc := hindex.NewAccessor(idx, ctr)
		visited := int64(0)
		var walk func(id hindex.NodeID)
		walk = func(id hindex.NodeID) {
			n := acc.Visit(id)
			acc.Visit(id)
			visited++
			if n != idx.NumChildren(id) {
				t.Fatalf("%s: Visit reports %d entries, node has %d", name, n, idx.NumChildren(id))
			}
			if idx.IsLeaf(id) {
				entries := idx.LeafEntries(id)
				for slot, le := range entries {
					tid, pt := acc.Tuple(id, slot)
					if tid != le.TID || !reflect.DeepEqual(pt, le.Point) {
						t.Fatalf("%s: leaf %d slot %d: Tuple gives %d %v, LeafEntries %d %v", name, id, slot, tid, pt, le.TID, le.Point)
					}
					if !covered[2] && pt[2] != 1 {
						t.Fatalf("%s: uncovered dimension holds %v, want the domain midpoint 1", name, pt[2])
					}
				}
				if len(entries) > 1 {
					entries[0].Point[0] = -99
					if entries[1].Point[0] == -99 || idx.LeafEntries(id)[0].Point[0] == -99 {
						t.Fatalf("%s: leaf entries share storage", name)
					}
				}
				return
			}
			children := idx.Children(id)
			for slot, ch := range children {
				kid, box := acc.Child(id, slot)
				if kid != ch.ID || !reflect.DeepEqual(box, ch.Box) || kid != idx.ChildAt(id, slot) {
					t.Fatalf("%s: node %d slot %d: Child gives %d %v, Children %d %v", name, id, slot, kid, box, ch.ID, ch.Box)
				}
				if !covered[2] && (box.Lo[2] != -2 || box.Hi[2] != 4) {
					t.Fatalf("%s: uncovered dimension spans %v..%v, want the domain", name, box.Lo[2], box.Hi[2])
				}
			}
			children[0].Box.Lo[0] = -99
			if len(children) > 1 && children[1].Box.Lo[0] == -99 || idx.Children(id)[0].Box.Lo[0] == -99 {
				t.Fatalf("%s: child boxes share storage", name)
			}
			for _, ch := range children {
				walk(ch.ID)
			}
		}
		walk(idx.Root())
		if got := ctr.TotalReads(); got < visited {
			t.Fatalf("%s: %d nodes visited, %d reads charged", name, visited, got)
		}
		before := ctr.TotalReads()
		root := idx.Root()
		allocs := testing.AllocsPerRun(20, func() {
			for slot, n := 0, acc.Visit(root); slot < n; slot++ {
				if idx.IsLeaf(root) {
					acc.Tuple(root, slot)
				} else {
					acc.Child(root, slot)
				}
			}
		})
		if allocs != 0 || ctr.TotalReads() != before {
			t.Fatalf("%s: re-scoring a visited node made %v allocations and %d reads", name, allocs, ctr.TotalReads()-before)
		}
	}
}
