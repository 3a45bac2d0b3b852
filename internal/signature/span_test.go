package signature

import (
	"bytes"
	"math/rand"
	"testing"

	"rankcube/internal/pager"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// samePartials holds two encodings to the same partial SIDs and page bytes.
func samePartials(t *testing.T, what string, got *Stored, gotStore *pager.Store, want *Stored, wantStore *pager.Store) {
	t.Helper()
	gotPages, wantPages := got.Partials(), want.Partials()
	if len(gotPages) != len(wantPages) {
		t.Fatalf("%s: %d partials, want %d", what, len(gotPages), len(wantPages))
	}
	for sid, page := range wantPages {
		gotPage, ok := gotPages[sid]
		if !ok {
			t.Fatalf("%s: no partial %d", what, sid)
		}
		if !bytes.Equal(gotStore.Read(gotPage, stats.New()), wantStore.Read(page, stats.New())) {
			t.Fatalf("%s: partial %d differs:\n got %x\nwant %x", what, sid, gotStore.Read(gotPage, stats.New()), wantStore.Read(page, stats.New()))
		}
	}
}

// wantAll has Encoder.Decode decode every node.
func wantAll(uint64) bool { return true }

// countSpans reports how many nodes of the tree still carry a stored
// encoding, and how many nodes it has.
func countSpans(n *Node) (spans, nodes int) {
	if n == nil {
		return 0, 0
	}
	if n.page != nil {
		spans = 1
	}
	nodes = 1
	for _, k := range n.Kids {
		s, c := countSpans(k)
		spans, nodes = spans+s, nodes+c
	}
	return spans, nodes
}

// TestEncodeCopiesOnlyWhatDidNotChange: a decoded tree re-encodes to the bytes
// a span-free copy of it does — untouched, and after every kind of change
// maintenance makes to it: a bit set in an existing node, a node widened, a
// subtree added, a bit cleared, a clear that cascades to the parent.
func TestEncodeCopiesOnlyWhatDidNotChange(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		rt, paths, _ := fixture(t, 900, func(tid table.TID) bool { return tid%3 != 0 })
		store := pager.NewStore(stats.StructSignature, 48)
		enc := NewEncoder(rt.MaxFanout(), rt.Height(), store)
		enc.SetBaselineOnly(baseline)
		stored := enc.Encode(Generate(rt, paths))
		if stored.NumPartials() < 8 {
			t.Fatalf("%d partials: too few to cross partial cuts", stored.NumPartials())
		}
		width := func(prefix []int) int {
			id := rt.Root()
			for _, p := range prefix {
				id = rt.ChildAt(id, p-1)
			}
			return rt.NumChildren(id)
		}
		check := func(what string, tree *Node) {
			t.Helper()
			scratch := pager.NewStore(stats.StructSignature, 48)
			fresh := NewEncoder(rt.MaxFanout(), rt.Height(), scratch)
			fresh.SetBaselineOnly(baseline)
			want := fresh.Encode(tree.Clone()) // a clone has no spans: every node is coded
			samePartials(t, what, enc.Encode(tree), store, want, scratch)
		}

		tree := enc.Decode(stored, stats.New(), wantAll)
		if spans, nodes := countSpans(tree); spans != nodes {
			t.Fatalf("decoded tree: %d of %d nodes carry their encoding", spans, nodes)
		}
		check("untouched", tree)

		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 40; round++ {
			tree = enc.Decode(stored, stats.New(), wantAll)
			for i := 0; i < 1+rng.Intn(4); i++ {
				p := rt.TuplePath(table.TID(rng.Intn(900)))
				if rng.Intn(2) == 0 {
					tree.Set(p, width, rt.Height())
				} else if tree.Clear(p) {
					t.Fatal("cleared the whole tree")
				}
			}
			if spans, nodes := countSpans(tree); spans == nodes {
				continue // every pick was a no-op
			}
			check("after maintenance", tree)
			stored = enc.Encode(tree)
		}

		// Clearing every tuple under a node cascades: the subtree goes, its
		// parent's bit with it, and the parent has to be coded again.
		tree = enc.Decode(stored, stats.New(), wantAll)
		var leafPaths [][]int
		for _, p := range tree.Tuples(rt.Height()) {
			if p[0] == 1 && p[1] == 1 {
				leafPaths = append(leafPaths, p)
			}
		}
		for _, p := range leafPaths {
			tree.Clear(p)
		}
		if len(leafPaths) == 0 || tree.Test([]int{1, 1}) {
			t.Fatalf("cleared the %d tuples under [1 1], its bit still set: %v", len(leafPaths), tree.Test([]int{1, 1}))
		}
		check("after a cascading clear", tree)

		// Widening alone changes the encoding (the length field).
		tree = enc.Decode(stored, stats.New(), wantAll)
		leaf := tree.Kids[tree.Bits.NextOne(0)]
		for leaf.Kids != nil {
			leaf = leaf.Kids[leaf.Bits.NextOne(0)]
		}
		if leaf.Bits.Len() >= rt.MaxFanout() {
			t.Fatalf("first leaf is full (%d slots): nothing to widen", leaf.Bits.Len())
		}
		leaf.grow(leaf.Bits.Len() + 1)
		check("after grow", tree)

		// A clone is new bits: none of its nodes may carry a span.
		tree = enc.Decode(stored, stats.New(), wantAll)
		if got, _ := countSpans(tree.Clone()); got != 0 {
			t.Fatalf("clone: %d nodes carry an encoding they did not earn", got)
		}
	}
}
