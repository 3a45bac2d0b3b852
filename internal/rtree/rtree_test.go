package rtree

import (
	"math/rand"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/table"
)

func genTable(n int, seed int64) *table.Table {
	return table.Generate(table.GenSpec{T: n, S: 1, R: 3, Card: 4, Seed: seed})
}

// checkInvariants walks the tree verifying MBR containment, parent links,
// and that exactly the expected tids are present.
func checkInvariants(t *testing.T, tr *Tree, want int) {
	t.Helper()
	if tr.Root() == hindex.InvalidNode {
		if want != 0 {
			t.Fatalf("empty tree, want %d tuples", want)
		}
		return
	}
	seen := make(map[table.TID]bool)
	d := len(tr.Dims())
	var walk func(id hindex.NodeID, depth int)
	walk = func(id hindex.NodeID, depth int) {
		if tr.IsLeaf(id) {
			if depth != tr.Height() {
				t.Fatalf("leaf %d at depth %d, height %d", id, depth, tr.Height())
			}
			for slot := 0; slot < tr.NumChildren(id); slot++ {
				tid := tr.TupleAt(id, slot)
				if seen[tid] {
					t.Fatalf("tid %d duplicated", tid)
				}
				seen[tid] = true
				if leaf, at, ok := tr.Locate(tid); !ok || leaf != id || at != slot {
					t.Fatalf("Locate(%d) = %d/%d/%v, want %d/%d", tid, leaf, at, ok, id, slot)
				}
			}
			return
		}
		for pos := 0; pos < tr.NumChildren(id); pos++ {
			kid := tr.ChildAt(id, pos)
			if parent, at := tr.Parent(kid); parent != id || at != pos {
				t.Fatalf("back-link broken: node %d pos %d", kid, pos)
			}
			// Parent entry rect must cover the child's MBR.
			cm, pr := newRect(d), tr.entry(id, pos)
			tr.MBR(kid, cm.lo, cm.hi)
			for j := 0; j < d; j++ {
				if cm.lo[j] < pr.lo[j]-1e-12 || cm.hi[j] > pr.hi[j]+1e-12 {
					t.Fatalf("entry rect does not cover child %d", kid)
				}
			}
			walk(kid, depth+1)
		}
	}
	walk(tr.Root(), 1)
	if len(seen) != want {
		t.Fatalf("found %d tuples, want %d", len(seen), want)
	}
}

func TestBulkInvariants(t *testing.T) {
	tb := genTable(5000, 21)
	tr := Bulk(tb, []int{0, 1, 2}, ranking.UnitBox(3), Config{Fanout: 16})
	checkInvariants(t, tr, 5000)
	if tr.Height() < 2 {
		t.Fatalf("Height = %d for 5000 tuples, fanout 16", tr.Height())
	}
}

func TestBulkFanoutFromPage(t *testing.T) {
	tb := genTable(100, 1)
	tr := Bulk(tb, []int{0, 1}, ranking.UnitBox(3), Config{})
	if tr.MaxFanout() != 204 {
		t.Fatalf("2-d fanout = %d, want 204", tr.MaxFanout())
	}
	tb5 := table.Generate(table.GenSpec{T: 100, S: 1, R: 5, Card: 4, Seed: 1})
	tr5 := Bulk(tb5, []int{0, 1, 2, 3, 4}, ranking.UnitBox(5), Config{})
	if tr5.MaxFanout() != 93 {
		t.Fatalf("5-d fanout = %d, want 93", tr5.MaxFanout())
	}
}

func TestInsertInvariants(t *testing.T) {
	tb := genTable(2000, 22)
	tr := New([]int{0, 1}, 3, ranking.UnitBox(3), Config{Fanout: 8})
	for i := 0; i < tb.Len(); i++ {
		pt := tb.RankRow(table.TID(i), nil)
		tr.Insert(table.TID(i), pt)
	}
	checkInvariants(t, tr, 2000)
}

func TestInsertAffectedSetSound(t *testing.T) {
	// Paths of tuples NOT in the affected set must be unchanged by the
	// insert — the property signature maintenance depends on (§4.2.5).
	tb := genTable(600, 23)
	tr := New([]int{0, 1, 2}, 3, ranking.UnitBox(3), Config{Fanout: 6})
	paths := make(map[table.TID]string)
	for i := 0; i < tb.Len(); i++ {
		tid := table.TID(i)
		affected := tr.Insert(tid, tb.RankRow(tid, nil))
		aset := make(map[table.TID]bool, len(affected))
		for _, a := range affected {
			aset[a] = true
		}
		if !aset[tid] {
			t.Fatalf("inserted tid %d not in affected set", tid)
		}
		for old, p := range paths {
			if !aset[old] {
				if got := core.IntsKey(tr.TuplePath(old)); got != p {
					t.Fatalf("insert %d silently moved tuple %d", tid, old)
				}
			}
		}
		for _, a := range affected {
			paths[a] = core.IntsKey(tr.TuplePath(a))
		}
	}
}

func TestDelete(t *testing.T) {
	tb := genTable(800, 24)
	tr := New([]int{0, 1}, 3, ranking.UnitBox(3), Config{Fanout: 8})
	for i := 0; i < tb.Len(); i++ {
		tr.Insert(table.TID(i), tb.RankRow(table.TID(i), nil))
	}
	rng := rand.New(rand.NewSource(4))
	alive := make(map[table.TID]bool, tb.Len())
	for i := 0; i < tb.Len(); i++ {
		alive[table.TID(i)] = true
	}
	for i := 0; i < 400; i++ {
		tid := table.TID(rng.Intn(tb.Len()))
		_, ok := tr.Delete(tid)
		if ok != alive[tid] {
			t.Fatalf("Delete(%d) ok=%v want %v", tid, ok, alive[tid])
		}
		delete(alive, tid)
	}
	checkInvariants(t, tr, len(alive))
	if _, ok := tr.Delete(table.TID(tb.Len() + 5)); ok {
		t.Fatal("deleted nonexistent tuple")
	}
}

// deleteSound deletes tid and holds Delete's affected set to the paths the
// tree served before it: a tuple the set leaves out is where it was. paths is
// brought up to date.
func deleteSound(t *testing.T, tr *Tree, paths map[table.TID]string, tid table.TID) {
	t.Helper()
	affected, ok := tr.Delete(tid)
	if !ok {
		return
	}
	aset := map[table.TID]bool{tid: true}
	for _, a := range affected {
		aset[a] = true
	}
	for old, p := range paths {
		if aset[old] {
			continue
		}
		if got := core.IntsKey(tr.TuplePath(old)); got != p {
			t.Fatalf("delete %d silently moved tuple %d: path %v, was %q", tid, old, tr.TuplePath(old), p)
		}
	}
	delete(paths, tid)
	for _, a := range affected {
		if a != tid {
			paths[a] = core.IntsKey(tr.TuplePath(a))
		}
	}
}

func insertAll(tb *table.Table, cfg Config) (*Tree, map[table.TID]string) {
	tr := New([]int{0, 1}, 3, ranking.UnitBox(3), cfg)
	for i := 0; i < tb.Len(); i++ {
		tr.Insert(table.TID(i), tb.RankRow(table.TID(i), nil))
	}
	paths := make(map[table.TID]string)
	for i := 0; i < tb.Len(); i++ {
		paths[table.TID(i)] = core.IntsKey(tr.TuplePath(table.TID(i)))
	}
	return tr, paths
}

func TestDeleteAffectedSetSound(t *testing.T) {
	tb := genTable(300, 25)
	tr, paths := insertAll(tb, Config{Fanout: 5})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		deleteSound(t, tr, paths, table.TID(rng.Intn(tb.Len())))
	}
}

// TestDeleteRootCollapseReportsSurvivors empties the root's last entry, again
// and again: with two entries left, the root collapses into the other one and
// every surviving tuple's path loses its first position — whichever slot the
// emptied child sat in, and here it is the last, where no sibling is moved
// into its place.
func TestDeleteRootCollapseReportsSurvivors(t *testing.T) {
	tb := genTable(120, 27)
	tr, paths := insertAll(tb, Config{Fanout: 4})
	height := tr.Height()
	if height < 3 {
		t.Fatalf("height %d, want a root above internal nodes", height)
	}
	for tr.Height() == height {
		under := map[table.TID]struct{}{}
		tr.collectSubtree(tr.ChildAt(tr.Root(), tr.NumChildren(tr.Root())-1), under)
		for _, tid := range keys(under) {
			deleteSound(t, tr, paths, tid)
		}
	}
	if tr.Height() != height-1 || len(paths) == 0 {
		t.Fatalf("height %d → %d with %d tuples left, want one level less over some", height, tr.Height(), len(paths))
	}
	checkInvariants(t, tr, len(paths))
}

func TestNodeBoxContainsPoints(t *testing.T) {
	tb := genTable(2000, 27)
	tr := Bulk(tb, []int{0, 2}, ranking.UnitBox(3), Config{Fanout: 12})
	var walk func(id hindex.NodeID)
	walk = func(id hindex.NodeID) {
		box := tr.NodeBox(id, tr.Domain().Clone())
		if tr.IsLeaf(id) {
			for _, e := range tr.LeafEntries(id) {
				for _, dim := range tr.Dims() {
					if e.Point[dim] < box.Lo[dim]-1e-12 || e.Point[dim] > box.Hi[dim]+1e-12 {
						t.Fatalf("point outside leaf box on dim %d", dim)
					}
				}
			}
			return
		}
		for _, ch := range tr.Children(id) {
			walk(ch.ID)
		}
	}
	walk(tr.Root())
}

func TestUncoveredDimsSpanDomain(t *testing.T) {
	tb := genTable(500, 28)
	tr := Bulk(tb, []int{1}, ranking.UnitBox(3), Config{Fanout: 8})
	box := tr.NodeBox(tr.Root(), tr.Domain().Clone())
	if box.Lo[0] != 0 || box.Hi[0] != 1 || box.Lo[2] != 0 || box.Hi[2] != 1 {
		t.Fatalf("uncovered dims don't span domain: %v..%v", box.Lo, box.Hi)
	}
}
