package hindex_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"rankcube/internal/btree"
	"rankcube/internal/errs"
	"rankcube/internal/gridtree"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// TestNilCountersAbort: an accessor charging its node visits to nobody is
// refused at its reset with a typed internal fault.
func TestNilCountersAbort(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 50, S: 1, R: 2, Card: 4, Seed: 5})
	idx := rtree.Bulk(tb, []int{0, 1}, ranking.NewBox([]float64{0, 0}, []float64{1, 1}), rtree.Config{Fanout: 5})
	var err error
	func() {
		defer func() { err, _ = errs.IsAbort(recover()) }()
		new(hindex.Accessor).Reset(idx, nil)
	}()
	if !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("Reset with nil counters: abort %v, want ErrInternal", err)
	}
}

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

// TestSlotAccessorsMatchMaterializedEntries is the conformance table of the
// node store under each builder, and under the R-tree's maintenance. The
// entry half holds the one-slot-at-a-time accessors a search scores through
// to the materialized lists, entry by entry; checks that the lists' entries
// do not share storage with each other or with the accessor's scratch; that
// dimensions the index does not cover carry the domain (boxes) or its midpoint
// (points); that an entry lies inside its node's entry in the parent; and that
// a visit is charged once and scoring through the scratch allocates nothing.
// The path half holds Path to the positions walked from the root and NodeAt
// to its inverse for every node; TuplePath to the Height positions the walk
// reached the tuple by, and LeafPath to TuplePath less the slot and to the
// leaf's Path, for every tuple; and has positions no entry holds, a tuple's
// path taken for a node's and tuples the tree does not hold rejected.
func TestSlotAccessorsMatchMaterializedEntries(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 1, R: 3, Card: 4, Seed: 5})
	domain := ranking.NewBox([]float64{0, 0, -2}, []float64{1, 1, 4})
	churned := rtree.New([]int{0, 1}, 3, domain, rtree.Config{Fanout: 5})
	for i := 0; i < 400; i++ {
		churned.Insert(table.TID(i), tb.RankRow(table.TID(i), nil))
	}
	for i := 0; i < 400; i += 3 {
		churned.Delete(table.TID(i))
	}
	for name, idx := range map[string]hindex.PartitionTree{
		"rtree":       rtree.Bulk(tb, []int{0, 1}, domain, rtree.Config{Fanout: 9}),
		"rtree/churn": churned,
		"gridtree":    gridtree.Build(tb, []int{0, 1}, domain, gridtree.Config{Fanout: 9, BlockSize: 30}),
		"btree":       btree.Build(tb, 1, domain, btree.Config{Fanout: 9}),
	} {
		tuples := tb.Len()
		if idx == churned {
			tuples = 400 - 134
		}
		covered := make(map[int]bool)
		for _, d := range idx.Dims() {
			covered[d] = true
		}
		ctr := stats.New()
		var acc hindex.Accessor
		acc.Reset(idx, ctr)
		visited := int64(0)
		inside := func(lo, hi []float64, within ranking.Box) bool {
			for d := range lo {
				if lo[d] < within.Lo[d] || hi[d] > within.Hi[d] {
					return false
				}
			}
			return true
		}
		seen := 0
		var walk func(id hindex.NodeID, path []int, within ranking.Box)
		walk = func(id hindex.NodeID, path []int, within ranking.Box) {
			if got := idx.Path(id); !slices.Equal(got, path) {
				t.Fatalf("%s: node %d reached by %v has Path %v", name, id, path, got)
			}
			if got, ok := idx.NodeAt(path); !ok || got != id {
				t.Fatalf("%s: NodeAt(%v) = %d/%v, want node %d", name, path, got, ok, id)
			}
			for _, p := range []int{0, idx.NumChildren(id) + 1} {
				bad := append(slices.Clone(path), p)
				if _, ok := idx.NodeAt(bad); ok {
					t.Fatalf("%s: NodeAt(%v) resolves a slot node %d does not have", name, bad, id)
				}
			}
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
					if !inside(pt, pt, within) {
						t.Fatalf("%s: leaf %d slot %d: point %v outside the leaf's entry %v", name, id, slot, pt, within)
					}
					seen++
					full := append(slices.Clone(path), slot+1)
					if got := idx.TuplePath(tid); !slices.Equal(got, full) || len(got) != idx.Height() {
						t.Fatalf("%s: TuplePath(%d) = %v, want %v of height %d", name, tid, got, full, idx.Height())
					}
					if got := idx.LeafPath(tid); !slices.Equal(got, path) {
						t.Fatalf("%s: LeafPath(%d) = %v, want the leaf's path %v", name, tid, got, path)
					}
					if _, ok := idx.NodeAt(full); ok {
						t.Fatalf("%s: NodeAt resolves tuple %d's path to a node", name, tid)
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
				if !inside(box.Lo, box.Hi, within) {
					t.Fatalf("%s: node %d slot %d: box %v outside the node's entry %v", name, id, slot, box, within)
				}
			}
			children[0].Box.Lo[0] = -99
			if len(children) > 1 && children[1].Box.Lo[0] == -99 || idx.Children(id)[0].Box.Lo[0] == -99 {
				t.Fatalf("%s: child boxes share storage", name)
			}
			children = idx.Children(id)
			for slot, ch := range children {
				walk(ch.ID, append(slices.Clone(path), slot+1), ch.Box)
			}
		}
		walk(idx.Root(), []int{}, idx.NodeBox(idx.Root(), idx.Domain().Clone()))
		if seen != tuples {
			t.Fatalf("%s: %d tuples under the root, want %d", name, seen, tuples)
		}
		if idx.TuplePath(table.TID(tb.Len())) != nil || idx.LeafPath(table.TID(tb.Len())) != nil {
			t.Fatalf("%s: a tuple the tree does not hold resolves", name)
		}
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
