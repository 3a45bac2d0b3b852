package rankcube

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"rankcube/internal/bitvec"
	"rankcube/internal/pager"
	"rankcube/internal/stats"
)

// TestWriteCarriesMalformedLeafOffItsPaths pins when a write meets a
// leaf-level signature node that passes its page's checksum but does not
// decode: a write whose paths do not reach it carries it over as stored and
// succeeds, a query that reaches it gets ErrPageCorrupt, and a write whose
// path reaches it aborts with ErrPageCorrupt and quarantines the store, which
// Repair rebuilds from the maintained paths.
func TestWriteCarriesMalformedLeafOffItsPaths(t *testing.T) {
	ctx := context.Background()
	rel := GenerateRelation(3000, 1, 2, 2, Uniform, 5)
	cube := BuildSignatureCube(rel, SigOptions{Fanout: 8})
	tree, store := cube.c.Tree(), cube.c.Store()
	cond, f, all := Cond{0: 1}, Sum(0, 1), rel.Len()
	strict := WithBudget(Budget{DisableFallback: true})

	// The cell's root partial is the first page a view of it reads.
	var page pager.PageID = -1
	store.SetFaultInjector(&pager.ScriptedFaults{OnRead: func(id pager.PageID, _ int) {
		if page < 0 {
			page = id
		}
	}})
	tester, _, err := cube.c.TesterFor(cond, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	tester.Test([]int{1})
	store.SetFaultInjector(nil)

	// Replay the partial's BFS to find where its leaf-level nodes sit.
	codec, height := bitvec.NewCodec(tree.MaxFanout()), tree.Height()
	data := store.Read(page, stats.New())
	r := bitvec.NewReader(data)
	if depth := r.ReadBits(8); depth != 0 || height < 3 {
		t.Fatalf("page %d heads partial depth %d, tree height %d: want the root partial of a tree of 3 levels or more", page, depth, height)
	}
	count := int(r.ReadBits(32))
	type internal struct {
		path []int
		bits *bitvec.Bits
	}
	queue := []internal{{nil, codec.Decode(r)}}
	var leaves [][]int
	var offs []int
	for n := 1; len(queue) > 0 && n < count; queue = queue[1:] {
		p := queue[0]
		for i := p.bits.NextOne(0); i >= 0 && n < count; i = p.bits.NextOne(i + 1) {
			path := append(slices.Clone(p.path), i+1)
			if n++; len(path) < height-1 {
				queue = append(queue, internal{path, codec.Decode(r)})
				continue
			}
			leaves, offs = append(leaves, path), append(offs, r.Pos())
			codec.Skip(r)
		}
	}
	if len(leaves) < 4 {
		t.Fatalf("the root partial holds %d leaf-level nodes, want a few", len(leaves))
	}

	// Give one of them a scheme no encoder writes (0b001), region untouched,
	// and store the page again under a valid checksum.
	bad, off := leaves[len(leaves)/2], offs[len(leaves)/2]
	var w bitvec.Writer
	w.Copy(data, 0, off)
	w.WriteBits(0b001, 3)
	w.Copy(data, off+3, len(data)*8-off-3)
	store.Free(page)
	if store.Append(w.Bytes()) != page {
		t.Fatal("the page did not come back under its id")
	}

	// A tuple of the cell whose leaf is another, and keeps other tuples when
	// it goes (a swap inside its leaf is the whole update set), and one whose
	// leaf is the malformed node's.
	var off1, on1 TID = -1, -1
	for tid := TID(0); int(tid) < rel.Len(); tid++ {
		path := tree.TuplePath(tid)
		leaf, _ := tree.NodeAt(path[:len(path)-1])
		switch {
		case rel.Sel(tid, 0) != cond[0]:
		case slices.Equal(path[:len(path)-1], bad):
			on1 = tid
		case off1 < 0 && tree.NumChildren(leaf) > 1:
			off1 = tid
		}
	}
	if off1 < 0 || on1 < 0 {
		t.Fatalf("no tuple to delete off (%d) or on (%d) the malformed node", off1, on1)
	}

	if ok, err := cube.DeleteTuple(ctx, off1); !ok || err != nil {
		t.Fatalf("a write off the malformed node: %v %v, want it to succeed", ok, err)
	}
	if _, err := cube.Query(ctx, cond, f, all, strict); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("a query reaching the carried node: %v, want ErrPageCorrupt", err)
	}
	if st := store.State(); st != pager.StateHealthy {
		t.Fatalf("after the query the store is %v, want healthy", st)
	}

	if _, err := cube.DeleteTuple(ctx, on1); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("a write reaching the malformed node: %v, want ErrPageCorrupt", err)
	}
	if st := store.State(); st != pager.StateQuarantined {
		t.Fatalf("after the aborted write the store is %v, want quarantined", st)
	}
	if _, err := cube.Repair(ctx); err != nil {
		t.Fatal(err)
	}
	if st := store.State(); st != pager.StateHealthy {
		t.Fatalf("after Repair the store is %v, want healthy", st)
	}
	got, err := cube.Query(ctx, cond, f, all, strict)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.BaselineQuery(ctx, cond, f, all)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after Repair the cube answers %d results, the baseline %d (%v)", len(got), len(want), err)
	}
	for _, tid := range []TID{off1, on1} {
		if cube.c.Alive(tid) {
			t.Fatalf("tuple %d survived its delete", tid)
		}
	}
}

// TestBadDeletesChangeNothing: deleting a TID below the relation, past its
// end, or already deleted reports (false, nil) on both cubes and leaves the
// write count and every store's pages as they were.
func TestBadDeletesChangeNothing(t *testing.T) {
	ctx := context.Background()
	rel := GenerateRelation(500, 2, 2, 5, Uniform, 12)
	grid := BuildGridCube(rel, GridOptions{BlockSize: 50})
	sig := BuildSignatureCube(GenerateRelation(500, 2, 2, 5, Uniform, 12), SigOptions{Fanout: 16})
	for _, tc := range []struct {
		name   string
		delete func(TID) (bool, error)
		writes func() uint64
		health func() []StoreHealth
	}{
		{"grid", func(tid TID) (bool, error) { return grid.DeleteTuple(ctx, tid) },
			func() uint64 { return uint64(grid.c.PendingMaintenance()) }, grid.Health},
		{"signature", func(tid TID) (bool, error) { return sig.DeleteTuple(ctx, tid) },
			sig.c.Epoch, sig.Health},
	} {
		if ok, err := tc.delete(7); !ok || err != nil {
			t.Fatalf("%s: deleting tuple 7: %v %v", tc.name, ok, err)
		}
		writes, health := tc.writes(), tc.health()
		for _, tid := range []TID{-1, TID(rel.Len()), 7} {
			if ok, err := tc.delete(tid); ok || err != nil {
				t.Fatalf("%s: deleting tuple %d: %v %v, want false, nil", tc.name, tid, ok, err)
			}
			if got := tc.writes(); got != writes {
				t.Fatalf("%s: deleting tuple %d moved the write count %d → %d", tc.name, tid, writes, got)
			}
			if got := tc.health(); !reflect.DeepEqual(got, health) {
				t.Fatalf("%s: deleting tuple %d moved the stores %v → %v", tc.name, tid, health, got)
			}
		}
	}
}
