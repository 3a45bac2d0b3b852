package btree

import (
	"sort"
	"testing"

	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func buildTree(t *testing.T, n int, cfg Config) (*table.Table, *Tree) {
	t.Helper()
	tb := table.Generate(table.GenSpec{T: n, S: 1, R: 2, Card: 4, Seed: 17})
	tr := Build(tb, 0, ranking.UnitBox(2), cfg)
	return tb, tr
}

// collect gathers every tid reachable from the root, verifying containment
// invariants along the way.
func collect(t *testing.T, tr *Tree, id hindex.NodeID, box ranking.Box, out map[table.TID]bool) {
	t.Helper()
	dim, lo, hi := tr.Dims()[0], make([]float64, 1), make([]float64, 1)
	tr.NodeRect(id, lo, hi)
	if lo[0] < box.Lo[dim]-1e-12 || hi[0] > box.Hi[dim]+1e-12 {
		t.Fatalf("node %d box %v..%v escapes parent %v..%v", id, lo, hi, box.Lo, box.Hi)
	}
	if tr.IsLeaf(id) {
		for _, e := range tr.LeafEntries(id) {
			if out[e.TID] {
				t.Fatalf("tid %d appears twice", e.TID)
			}
			out[e.TID] = true
			if e.Point[dim] < lo[0] || e.Point[dim] > hi[0] {
				t.Fatalf("leaf entry %v outside node box", e.Point)
			}
		}
		return
	}
	for _, ch := range tr.Children(id) {
		collect(t, tr, ch.ID, ch.Box, out)
	}
}

func TestBuildInvariants(t *testing.T) {
	tb, tr := buildTree(t, 5000, Config{Fanout: 16})
	if tr.Root() == hindex.InvalidNode {
		t.Fatal("no root")
	}
	seen := make(map[table.TID]bool)
	collect(t, tr, tr.Root(), tr.Domain(), seen)
	if len(seen) != tb.Len() {
		t.Fatalf("collected %d tids, want %d", len(seen), tb.Len())
	}
}

func TestLeavesSortedByValue(t *testing.T) {
	tb, tr := buildTree(t, 3000, Config{Fanout: 32})
	var vals []float64
	var walk func(id hindex.NodeID)
	walk = func(id hindex.NodeID) {
		if tr.IsLeaf(id) {
			for _, e := range tr.LeafEntries(id) {
				vals = append(vals, e.Point[0])
			}
			return
		}
		for _, ch := range tr.Children(id) {
			walk(ch.ID)
		}
	}
	walk(tr.Root())
	if len(vals) != tb.Len() {
		t.Fatalf("walked %d values", len(vals))
	}
	if !sort.Float64sAreSorted(vals) {
		t.Fatal("leaf values not globally sorted")
	}
}

func TestFanoutFromPageSize(t *testing.T) {
	_, tr := buildTree(t, 100, Config{PageSize: 4096})
	if tr.MaxFanout() != 204 {
		t.Fatalf("fanout = %d, want 204 (thesis B-tree fanout)", tr.MaxFanout())
	}
}

func TestAccessorChargesReads(t *testing.T) {
	_, tr := buildTree(t, 2000, Config{Fanout: 8})
	ctr := stats.New()
	var acc hindex.Accessor
	acc.Reset(tr, ctr)
	acc.Visit(tr.Root())
	kids := tr.Children(tr.Root())
	if ctr.Reads(stats.StructBTree) != 1 {
		t.Fatalf("reads = %d after one access", ctr.Reads(stats.StructBTree))
	}
	acc.Visit(tr.Root()) // buffered: no extra charge
	if ctr.Reads(stats.StructBTree) != 1 {
		t.Fatalf("reads = %d after repeat access", ctr.Reads(stats.StructBTree))
	}
	if !acc.Retrieved(tr.Root()) {
		t.Fatal("Retrieved(root) = false after access")
	}
	if acc.Retrieved(kids[0].ID) {
		t.Fatal("Retrieved(child) = true before access")
	}
}

func TestEmptyTree(t *testing.T) {
	tb := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{2}, RankNames: []string{"n", "m"}})
	tr := Build(tb, 0, ranking.UnitBox(2), Config{})
	if tr.Root() != hindex.InvalidNode {
		t.Fatal("empty tree has a root")
	}
	if tr.Height() != 0 {
		t.Fatalf("Height = %d", tr.Height())
	}
}

func TestChildBoxesCoverSubtrees(t *testing.T) {
	_, tr := buildTree(t, 4000, Config{Fanout: 10})
	lo, hi := make([]float64, 1), make([]float64, 1)
	var walk func(id hindex.NodeID)
	walk = func(id hindex.NodeID) {
		if tr.IsLeaf(id) {
			return
		}
		for _, ch := range tr.Children(id) {
			tr.NodeRect(ch.ID, lo, hi)
			if lo[0] < ch.Box.Lo[0]-1e-12 || hi[0] > ch.Box.Hi[0]+1e-12 {
				t.Fatalf("child box %v..%v does not cover subtree %v..%v",
					ch.Box.Lo, ch.Box.Hi, lo, hi)
			}
			walk(ch.ID)
		}
	}
	walk(tr.Root())
}
