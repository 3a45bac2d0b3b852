package signature

import (
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// fixture builds an R-tree over synthetic data and returns the tuple paths
// of a pseudo-random subset (simulating one cell's tuples).
func fixture(t *testing.T, n int, pick func(table.TID) bool) (*rtree.Tree, [][]int, map[string]bool) {
	t.Helper()
	tb := table.Generate(table.GenSpec{T: n, S: 1, R: 2, Card: 4, Seed: 51})
	rt := rtree.Bulk(tb, []int{0, 1}, ranking.UnitBox(2), rtree.Config{Fanout: 8})
	var paths [][]int
	want := make(map[string]bool)
	for i := 0; i < n; i++ {
		tid := table.TID(i)
		if pick(tid) {
			p := rt.TuplePath(tid)
			paths = append(paths, p)
			want[core.IntsKey(p)] = true
		}
	}
	return rt, paths, want
}

func TestGenerateAndTest(t *testing.T) {
	rt, paths, want := fixture(t, 500, func(tid table.TID) bool { return tid%3 == 0 })
	sig := Generate(rt, paths)
	if sig == nil {
		t.Fatal("nil signature")
	}
	// Every member path tests true, along with all its prefixes.
	for _, p := range paths {
		for l := 1; l <= len(p); l++ {
			if !sig.Test(p[:l]) {
				t.Fatalf("member path prefix %v tests false", p[:l])
			}
		}
	}
	// Non-member tuple paths test false.
	for i := 0; i < 500; i++ {
		tid := table.TID(i)
		if tid%3 == 0 {
			continue
		}
		if sig.Test(rt.TuplePath(tid)) {
			t.Fatalf("non-member tuple %d tests true", tid)
		}
	}
	// Tuples() returns exactly the member paths.
	got := sig.Tuples(rt.Height())
	if len(got) != len(want) {
		t.Fatalf("Tuples = %d paths, want %d", len(got), len(want))
	}
	for _, p := range got {
		if !want[core.IntsKey(p)] {
			t.Fatalf("unexpected tuple path %v", p)
		}
	}
}

func TestGenerateEmpty(t *testing.T) {
	rt, _, _ := fixture(t, 50, func(table.TID) bool { return false })
	if sig := Generate(rt, nil); sig != nil {
		t.Fatal("empty path set produced a signature")
	}
	_ = rt
}

// prefixKeys marks every non-empty prefix of the given paths.
func prefixKeys(paths [][]int) map[string]bool {
	out := make(map[string]bool)
	for _, p := range paths {
		for l := 1; l <= len(p); l++ {
			out[core.IntsKey(p[:l])] = true
		}
	}
	return out
}

// TestUnionIntersect: the online assembly of §4.3.3 over stored cells. Or is
// the union, exact on every prefix of every tuple path; And is the
// intersection, exact on every tuple path and, above the tuples, never false
// over a subtree that holds a tuple of both cells.
func TestUnionIntersect(t *testing.T) {
	const n = 400
	rt, pathsA, _ := fixture(t, n, func(tid table.TID) bool { return tid%2 == 0 })
	_, pathsB, _ := fixture(t, n, func(tid table.TID) bool { return tid%3 == 0 })
	_, pathsX, _ := fixture(t, n, func(tid table.TID) bool { return tid%6 == 0 })
	store := pager.NewStore(stats.StructSignature, 96)
	enc := NewEncoder(rt.MaxFanout(), rt.Height(), store)
	view := func(paths [][]int) Tester {
		return NewView(enc.Encode(Generate(rt, paths)), enc.Codec(), store, stats.New())
	}
	a, b := view(pathsA), view(pathsB)
	and, or := And{a, b}, Or{a, b}
	inA, inB, inX := prefixKeys(pathsA), prefixKeys(pathsB), prefixKeys(pathsX)
	for i := 0; i < n; i++ {
		tid := table.TID(i)
		p := rt.TuplePath(tid)
		if got, want := and.Test(p), tid%6 == 0; got != want {
			t.Fatalf("And, tuple %d = %v, want %v", tid, got, want)
		}
		for l := 1; l <= len(p); l++ {
			key := core.IntsKey(p[:l])
			if got, want := or.Test(p[:l]), inA[key] || inB[key]; got != want {
				t.Fatalf("Or at %v = %v, want %v", p[:l], got, want)
			}
			if inX[key] && !and.Test(p[:l]) {
				t.Fatalf("And at %v is false over a tuple of both cells", p[:l])
			}
		}
	}
}

// TestIntersectDisjointTestsFalse: the conjunction of two cells with no tuple
// in common passes no tuple.
func TestIntersectDisjointTestsFalse(t *testing.T) {
	rt, pathsA, _ := fixture(t, 100, func(tid table.TID) bool { return tid < 10 })
	_, pathsB, _ := fixture(t, 100, func(tid table.TID) bool { return tid >= 90 })
	and := And{Generate(rt, pathsA), Generate(rt, pathsB)}
	for i := 0; i < 100; i++ {
		if p := rt.TuplePath(table.TID(i)); and.Test(p) {
			t.Fatalf("disjoint cells: tuple %d at %v passes their conjunction", i, p)
		}
	}
}

func TestSetClearRoundtrip(t *testing.T) {
	rt, paths, _ := fixture(t, 300, func(tid table.TID) bool { return tid%5 == 0 })
	sig := Generate(rt, paths)
	width := func(prefix []int) int {
		id := rt.Root()
		for _, p := range prefix {
			id = rt.ChildAt(id, p-1)
		}
		return rt.NumChildren(id)
	}
	// Add a previously absent tuple.
	extra := rt.TuplePath(7)
	if sig.Test(extra) {
		t.Fatal("tuple 7 unexpectedly present")
	}
	sig.Set(extra, width, rt.Height())
	if !sig.Test(extra) {
		t.Fatal("Set did not register path")
	}
	// Remove it again; tree returns to exactly the original membership.
	sig.Clear(extra)
	if sig.Test(extra) {
		t.Fatal("Clear left path set")
	}
	for _, p := range paths {
		if !sig.Test(p) {
			t.Fatalf("Clear damaged unrelated path %v", p)
		}
	}
}

func TestClearCascades(t *testing.T) {
	rt, _, _ := fixture(t, 200, func(tid table.TID) bool { return tid == 42 })
	p := rt.TuplePath(42)
	sig := Generate(rt, [][]int{p})
	if !sig.Clear(p) {
		t.Fatal("clearing the only tuple did not empty the root")
	}
	// All prefixes must now test false.
	for l := 1; l <= len(p); l++ {
		if sig.Test(p[:l]) {
			t.Fatalf("prefix %v still set after cascade clear", p[:l])
		}
	}
}

func encodeFixture(t *testing.T, n int, pick func(table.TID) bool, pageSize int) (*rtree.Tree, *Node, *Stored, *Encoder, *pager.Store) {
	t.Helper()
	rt, paths, _ := fixture(t, n, pick)
	sig := Generate(rt, paths)
	store := pager.NewStore(stats.StructSignature, pageSize)
	enc := NewEncoder(rt.MaxFanout(), rt.Height(), store)
	stored := enc.Encode(sig)
	return rt, sig, stored, enc, store
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rt, sig, stored, enc, _ := encodeFixture(t, 600, func(tid table.TID) bool { return tid%2 == 0 }, 4096)
	got := enc.Decode(stored, stats.New(), wantAll)
	wantPaths := sig.Tuples(rt.Height())
	gotPaths := got.Tuples(rt.Height())
	if len(wantPaths) != len(gotPaths) {
		t.Fatalf("decoded %d tuples, want %d", len(gotPaths), len(wantPaths))
	}
	sortPaths(wantPaths)
	sortPaths(gotPaths)
	for i := range wantPaths {
		if core.IntsKey(wantPaths[i]) != core.IntsKey(gotPaths[i]) {
			t.Fatalf("path %d: %v != %v", i, gotPaths[i], wantPaths[i])
		}
	}
}

func TestDecompositionProducesMultiplePartials(t *testing.T) {
	// A tiny page size forces decomposition into several partials.
	_, _, stored, _, _ := encodeFixture(t, 3000, func(tid table.TID) bool { return true }, 64)
	if stored.NumPartials() < 3 {
		t.Fatalf("NumPartials = %d, want several with 64-byte pages", stored.NumPartials())
	}
}

func TestViewMatchesTree(t *testing.T) {
	rt, sig, stored, enc, store := encodeFixture(t, 800, func(tid table.TID) bool { return tid%7 == 0 }, 128)
	view := NewView(stored, enc.Codec(), store, stats.New())
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		tid := table.TID(rng.Intn(800))
		p := rt.TuplePath(tid)
		l := 1 + rng.Intn(len(p))
		if view.Test(p[:l]) != sig.Test(p[:l]) {
			t.Fatalf("view.Test(%v) = %v, tree says %v", p[:l], view.Test(p[:l]), sig.Test(p[:l]))
		}
	}
}

func TestViewLoadsLazily(t *testing.T) {
	rt, _, stored, enc, store := encodeFixture(t, 3000, func(tid table.TID) bool { return true }, 64)
	ctr := stats.New()
	view := NewView(stored, enc.Codec(), store, ctr)
	// Testing one shallow path should load far fewer partials than exist.
	view.Test(rt.TuplePath(0)[:1])
	if got, total := ctr.Reads(stats.StructSignature), int64(stored.NumPartials()); got >= total {
		t.Fatalf("lazy view read %d of %d partials", got, total)
	}
}

func TestTesterCombinators(t *testing.T) {
	rt, pathsA, _ := fixture(t, 300, func(tid table.TID) bool { return tid%2 == 0 })
	_, pathsB, _ := fixture(t, 300, func(tid table.TID) bool { return tid%3 == 0 })
	a := Generate(rt, pathsA)
	b := Generate(rt, pathsB)
	and := And{a, b}
	or := Or{a, b}
	not := Not{T: a, Height: rt.Height()}
	for i := 0; i < 300; i++ {
		tid := table.TID(i)
		p := rt.TuplePath(tid)
		if and.Test(p) != (tid%2 == 0 && tid%3 == 0) {
			t.Fatalf("And tuple %d wrong", tid)
		}
		if or.Test(p) != (tid%2 == 0 || tid%3 == 0) {
			t.Fatalf("Or tuple %d wrong", tid)
		}
		if not.Test(p) != (tid%2 != 0) {
			t.Fatalf("Not tuple %d wrong", tid)
		}
	}
	if !(True{}).Test([]int{1, 2, 3}) {
		t.Fatal("True tester failed")
	}
	// Not passes internal nodes (sound overapproximation).
	if !not.Test([]int{1}) {
		t.Fatal("Not pruned an internal node")
	}
}

func TestEncodeNilSignature(t *testing.T) {
	store := pager.NewStore(stats.StructSignature, 4096)
	enc := NewEncoder(16, 3, store)
	stored := enc.Encode(nil)
	if stored.NumPartials() != 0 {
		t.Fatalf("nil signature stored %d partials", stored.NumPartials())
	}
	view := NewView(stored, enc.Codec(), store, stats.New())
	if view.Test([]int{1}) {
		t.Fatal("empty stored signature tests true")
	}
}

func TestBaselineOnlyLarger(t *testing.T) {
	rt, paths, _ := fixture(t, 2000, func(tid table.TID) bool { return tid%11 == 0 }) // sparse cell

	sig := Generate(rt, paths)
	storeA := pager.NewStore(stats.StructSignature, 4096)
	encA := NewEncoder(rt.MaxFanout(), rt.Height(), storeA)
	a := encA.Encode(sig)
	storeB := pager.NewStore(stats.StructSignature, 4096)
	encB := NewEncoder(rt.MaxFanout(), rt.Height(), storeB)
	encB.SetBaselineOnly(true)
	b := encB.Encode(sig)
	if a.NumPartials() == 0 || b.NumPartials() == 0 {
		t.Fatal("a sparse cell stored no partials")
	}
	if storeA.Bytes() > storeB.Bytes() {
		t.Fatalf("adaptive %d bytes > baseline %d bytes", storeA.Bytes(), storeB.Bytes())
	}
}

func sortPaths(ps [][]int) {
	sort.Slice(ps, func(a, b int) bool { return lexLess(ps[a], ps[b]) })
}
