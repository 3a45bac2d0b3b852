package signature

import (
	"errors"
	"fmt"
	"testing"

	"rankcube/internal/bitvec"
	"rankcube/internal/errs"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// probeAll runs every stage of t over the children of the node at parent,
// whose index node holds width entries, and returns the surviving slots.
func probeAll(tb testing.TB, t Tester, parent []int, width int) *bitvec.Bits {
	tb.Helper()
	stages, ok := Stages(t)
	if !ok {
		tb.Fatalf("%T%v has no stages", t, t)
	}
	var live bitvec.Bits
	live.SetAll(width)
	for _, st := range stages {
		st.Probe(parent, &live)
	}
	return &live
}

// checkProbeMatchesTest holds the bulk probe to the per-path test on every
// node of the index: a child survives all stages iff Test passes its path.
func checkProbeMatchesTest(t *testing.T, name string, idx hindex.Index, tester Tester) {
	t.Helper()
	var walk func(id hindex.NodeID, path []int)
	walk = func(id hindex.NodeID, path []int) {
		width := idx.NumChildren(id)
		live := probeAll(t, tester, path, width)
		for slot := 0; slot < width; slot++ {
			child := append(append([]int(nil), path...), slot+1)
			if got, want := live.Get(slot), tester.Test(child); got != want {
				t.Fatalf("%s: probe of %v says %v, Test says %v", name, child, got, want)
			}
			if !idx.IsLeaf(id) && live.Get(slot) {
				walk(idx.ChildAt(id, slot), child)
			}
		}
	}
	walk(idx.Root(), nil)
}

func TestProbeMatchesTestOnEveryTester(t *testing.T) {
	rt, pathsA, _ := fixture(t, 600, func(tid table.TID) bool { return tid%2 == 0 })
	_, pathsB, _ := fixture(t, 600, func(tid table.TID) bool { return tid%3 == 0 })
	a, b := Generate(rt, pathsA), Generate(rt, pathsB)

	store := pager.NewStore(stats.StructSignature, 128)
	enc := NewEncoder(rt.MaxFanout(), rt.Height(), store)
	sa, sb := enc.Encode(a), enc.Encode(b)
	view := func(s *Stored) *View { return NewView(s, enc.Codec(), store, stats.New()) }

	for name, tester := range map[string]Tester{
		"True":       True{},
		"Node":       a,
		"View":       view(sa),
		"And/nodes":  And{a, b},
		"And/views":  And{view(sa), view(sb)},
		"And/True":   And{True{}, view(sb)},
		"empty view": view(enc.Encode(nil)),
	} {
		checkProbeMatchesTest(t, name, rt, tester)
	}
}

// testOnly hides everything but Test, as a timing or filtering wrapper does.
type testOnly struct{ Tester }

// TestStages: a conjunction contributes its members' stages in order; a
// tester with a part that offers only Test has none and is reported opaque,
// and Probers stands one per-slot stage in for it.
func TestStages(t *testing.T) {
	n := &Node{Bits: bitvec.NewBits(4)}
	for _, c := range []struct {
		t      Tester
		want   int
		opaque bool
	}{
		{True{}, 0, false},
		{n, 1, false},
		{And{}, 0, false},
		{And{True{}, n}, 1, false},
		{And{n, And{n, n}}, 3, false},
		{Or{n, n}, 0, true},
		{Not{T: n, Height: 2}, 0, true},
		{testOnly{n}, 0, true},
		{And{n, testOnly{n}}, 0, true},
		{And{n, And{n, Not{T: n, Height: 2}}}, 0, true},
	} {
		stages, ok := Stages(c.t)
		if len(stages) != c.want || ok == c.opaque {
			t.Errorf("%T%v: %d stages, ok=%v; want %d, opaque=%v", c.t, c.t, len(stages), ok, c.want, c.opaque)
		}
		if probers := Probers(c.t); c.opaque && len(probers) != 1 || !c.opaque && len(probers) != c.want {
			t.Errorf("%T%v: %d probers; want %d, or the one stand-in when opaque=%v", c.t, c.t, len(probers), c.want, c.opaque)
		}
	}
}

// TestAndProbeWidths: members whose signature nodes differ in width — one
// written before its index node gained entries — mask the slots they lack.
func TestAndProbeWidths(t *testing.T) {
	narrow := &Node{Bits: bitvec.NewBits(3)}
	narrow.Bits.Set(0, true)
	narrow.Bits.Set(2, true)
	wide := &Node{Bits: bitvec.NewBits(70)}
	for _, i := range []int{0, 2, 5, 69} {
		wide.Bits.Set(i, true)
	}
	for name, tester := range map[string]Tester{"narrow first": And{narrow, wide}, "wide first": And{wide, narrow}} {
		live := probeAll(t, tester, nil, 70)
		if live.Ones() != 2 || !live.Get(0) || !live.Get(2) {
			t.Errorf("%s: survivors %s, want slots 0 and 2", name, live)
		}
	}
	if live := probeAll(t, wide, nil, 70); live.String() != wide.Bits.String() {
		t.Errorf("wide alone: survivors %s", live)
	}
	// A stage only narrows: slots already ruled out stay out.
	var live bitvec.Bits
	live.SetAll(70)
	live.Set(2, false)
	wide.Probe(nil, &live)
	if live.Get(2) {
		t.Error("probe revived a slot an earlier stage had cleared")
	}
}

// TestAndProbeIsLazyPerStage: stage j consults member j only, so the second
// cell's partials are not read until its stage runs.
func TestAndProbeIsLazyPerStage(t *testing.T) {
	rt, _, sa, enc, store := encodeFixture(t, 600, func(tid table.TID) bool { return tid%2 == 0 }, 128)
	_, pathsB, _ := fixture(t, 600, func(tid table.TID) bool { return tid%3 == 0 })
	sb := enc.Encode(Generate(rt, pathsB))
	ca, cb := stats.New(), stats.New()
	stages, _ := Stages(And{NewView(sa, enc.Codec(), store, ca), NewView(sb, enc.Codec(), store, cb)})
	if len(stages) != 2 {
		t.Fatalf("two views give %d stages", len(stages))
	}

	var live bitvec.Bits
	live.SetAll(rt.NumChildren(rt.Root()))
	stages[0].Probe(nil, &live)
	if ca.Reads(stats.StructSignature) == 0 || cb.Reads(stats.StructSignature) != 0 {
		t.Fatalf("after stage 0: member reads %d and %d, want >0 and 0",
			ca.Reads(stats.StructSignature), cb.Reads(stats.StructSignature))
	}
	stages[1].Probe(nil, &live)
	if cb.Reads(stats.StructSignature) == 0 {
		t.Fatal("stage 1 did not load the second member")
	}
	// Probing a resident node again charges nothing.
	before := ca.Reads(stats.StructSignature) + cb.Reads(stats.StructSignature)
	stages[0].Probe(nil, &live)
	stages[1].Probe(nil, &live)
	if after := ca.Reads(stats.StructSignature) + cb.Reads(stats.StructSignature); after != before {
		t.Fatalf("re-probing charged %d more reads", after-before)
	}
}

// corruptAbort runs fn and returns the error of the typed abort it raised,
// nil if it returned. Anything else — a runtime panic — propagates.
func corruptAbort(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = errs.IsAbort(r); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

// TestViewReportsMalformedLeafWhenReached: a leaf-level node whose header
// gives its region's true length but whose region holds a position past its
// array passes the page's checksum and its partial's load. Every path that does
// not reach the node answers as the tree does, with the reads the well-formed
// page charges; the first Test or Probe that reaches it aborts with
// ErrPageCorrupt.
func TestViewReportsMalformedLeafWhenReached(t *testing.T) {
	node := func(width int, set []int, kids ...*Node) *Node {
		n := &Node{Bits: bitvec.NewBits(width), Kids: kids}
		for _, i := range set {
			n.Bits.Set(i, true)
		}
		return n
	}
	leaves := []*Node{node(8, []int{0, 7}), node(8, []int{1}), node(8, []int{2, 3}), node(8, []int{5})}
	root := node(2, []int{0, 1},
		node(3, []int{0, 2}, leaves[0], nil, leaves[1]),
		node(4, []int{1, 3}, nil, leaves[2], nil, leaves[3]))
	bad := []int{2, 2} // leaves[2]

	// The root partial holds the root and both middle nodes; a child partial
	// under each middle node holds its two leaves.
	codec := bitvec.NewCodec(fuzzFanout)
	open := func(malformed bool, ctr *stats.Counters) *View {
		store := pager.NewStore(stats.StructSignature, 256)
		partial := func(path []int, nodes ...*Node) pager.PageID {
			var w bitvec.Writer
			w.WriteBits(uint64(len(path)), 8)
			for _, p := range path {
				w.WriteBits(uint64(p), 16)
			}
			w.WriteBits(uint64(len(nodes)), 32)
			for _, n := range nodes {
				if malformed && n == leaves[2] {
					// PI/sparse: the array's length less one (2), then the
					// position 5, each a position wide.
					pos := bitvec.BitsFor(fuzzFanout)
					w.WriteBits(bitvec.SchemePISparse, 3)
					w.WriteBits(uint64(2*pos-1), codec.HeaderBits()-3)
					w.WriteBits(2, pos)
					w.WriteBits(5, pos)
					continue
				}
				codec.Encode(&w, n.Bits)
			}
			return store.Append(w.Bytes())
		}
		refs := map[uint64]pager.PageID{0: partial(nil, root, root.Kids[0], root.Kids[1])}
		for slot := 1; slot <= 2; slot++ {
			refs[hindex.SID([]int{slot}, fuzzFanout)] = partial([]int{slot}, leaves[2*slot-2:2*slot]...)
		}
		return NewView(fuzzStored(refs), codec, store, ctr)
	}
	probe := func(p Prober, parent []int) string {
		var live bitvec.Bits
		live.SetAll(fuzzFanout)
		p.Probe(parent, &live)
		return live.String()
	}

	var paths [][]int // every path of one to three slots but those through the malformed node
	for a := 1; a <= fuzzFanout; a++ {
		paths = append(paths, []int{a})
		for b := 1; b <= fuzzFanout; b++ {
			paths = append(paths, []int{a, b})
			for c := 1; c <= fuzzFanout && (a != bad[0] || b != bad[1]); c++ {
				paths = append(paths, []int{a, b, c})
			}
		}
	}
	cGood, cBad := stats.New(), stats.New()
	good, warm := open(false, cGood), open(true, cBad)
	if err := corruptAbort(func() {
		for _, path := range paths {
			want := root.Test(path)
			if got, ok := warm.Test(path), good.Test(path); got != want || ok != want {
				t.Fatalf("Test(%v): malformed page %v, well-formed %v, tree %v", path, got, ok, want)
			}
			parent := path[:len(path)-1]
			if got, ok, want := probe(warm, parent), probe(good, parent), probe(root, parent); got != want || ok != want {
				t.Fatalf("Probe(%v): malformed page %s, well-formed %s, tree %s", parent, got, ok, want)
			}
			if cBad.TotalReads() != cGood.TotalReads() {
				t.Fatalf("after %v: the malformed page charged %d reads, the well-formed %d", path, cBad.TotalReads(), cGood.TotalReads())
			}
		}
	}); err != nil {
		t.Fatalf("a path that does not reach the malformed node aborted: %v", err)
	}
	if cGood.Reads(stats.StructSignature) != 3 {
		t.Fatalf("the paths loaded %d partials, want all 3", cGood.Reads(stats.StructSignature))
	}

	for name, reach := range map[string]func(v *View){
		"Test":  func(v *View) { v.Test(append(bad, 3)) },
		"Probe": func(v *View) { probe(v, bad) },
	} {
		for _, v := range []*View{warm, open(true, stats.New())} {
			if err := corruptAbort(func() { reach(v) }); !errors.Is(err, errs.ErrPageCorrupt) {
				t.Errorf("%s reaching the malformed node: %v, want ErrPageCorrupt", name, err)
			}
		}
	}
}

// fuzzFanout and fuzzHeight fix the shape the fuzzed pages are read against.
const (
	fuzzFanout = 8
	fuzzHeight = 3
)

// fuzzStored is a cell of that shape whose partials are the given pages.
func fuzzStored(pages map[uint64]pager.PageID) *Stored {
	refs := make(map[uint64]*partial, len(pages))
	for sid, page := range pages {
		refs[sid] = &partial{page: page}
	}
	return &Stored{height: fuzzHeight, fanout: fuzzFanout, refs: refs}
}

// FuzzViewDecode feeds arbitrary bytes to the partial-signature decoders as a
// stored page (Append checksums whatever it is given, so the CRC does not
// stand in the way): as the root partial, and as a child partial under a
// well-formed root. View.Test, View.Probe and Encoder.Decode must each return
// a value or abort with a typed ErrPageCorrupt — never a raw panic, and never
// run or allocate past what the page's own length allows — and when the lazy
// decoder and the maintenance decoder both take the bytes, they hold the same
// tuples, and so does a second view of the cell, which loads through the
// replays the first one published. viewTuples reaches every node the view
// holds, so a leaf-level node its load only stepped over is decoded there too.
// A Decode that decodes no
// leaf-level node, or those of odd SID, then Encode, gives the pages a full
// Decode then Encode does, or both abort.
func FuzzViewDecode(f *testing.F) {
	seeds, rootOnly := fuzzSeeds()
	for _, seed := range seeds {
		f.Add(seed)
	}
	codec := bitvec.NewCodec(fuzzFanout)
	f.Fuzz(func(t *testing.T, data []byte) {
		store := pager.NewStore(stats.StructSignature, 256)
		page, rootPage := store.Append(data), store.Append(rootOnly)
		for _, refs := range []map[uint64]pager.PageID{
			{0: page},
			{0: rootPage, hindex.SID([]int{1}, fuzzFanout): page},
		} {
			stored := fuzzStored(refs)
			var viewed, decoded [][]int
			runs := []func(){
				func() {
					v := NewView(stored, codec, store, stats.New())
					for _, p := range [][]int{{1}, {1, 1}, {1, 1, 1}, {2, 3, 4}, {8, 8, 8}} {
						v.Test(p)
					}
					var live bitvec.Bits
					live.SetAll(fuzzFanout)
					v.Probe([]int{1, 2}, &live)
					viewed = viewTuples(v, nil)
				},
				func() {
					decoded = NewEncoder(fuzzFanout, fuzzHeight, store).Decode(stored, stats.New(), wantAll).Tuples(fuzzHeight)
				},
			}
			accepted, viewErr := 0, error(nil)
			for i, run := range runs {
				err := corruptAbort(run)
				if i == 0 {
					viewErr = err
				}
				if err == nil {
					accepted++
				} else if !errors.Is(err, errs.ErrPageCorrupt) {
					t.Fatalf("abort is not ErrPageCorrupt: %v", err)
				}
			}
			if accepted == len(runs) && fmt.Sprint(viewed) != fmt.Sprint(decoded) {
				t.Fatalf("the view holds tuples %v, Decode %v", viewed, decoded)
			}
			// A second view of the cell loads through the replays the first one
			// published: it holds the same tuples, or aborts as that one did.
			var warm [][]int
			warmErr := corruptAbort(func() { warm = viewTuples(NewView(stored, codec, store, stats.New()), nil) })
			if (warmErr == nil) != (viewErr == nil) || fmt.Sprint(warm) != fmt.Sprint(viewed) {
				t.Fatalf("a warm view holds tuples %v (%v), the cold one %v (%v)", warm, warmErr, viewed, viewErr)
			}

			full, fullErr := reencode(t, stored, store, wantAll)
			for _, want := range []func(uint64) bool{wantNone, oddSIDs} {
				got, err := reencode(t, stored, store, want)
				if (err == nil) != (fullErr == nil) || fmt.Sprint(got) != fmt.Sprint(full) {
					t.Fatalf("a filtered Decode re-encodes to %x (%v), a full one to %x (%v)", got, err, full, fullErr)
				}
			}
		}
	})
}

func wantNone(uint64) bool    { return false }
func oddSIDs(sid uint64) bool { return sid%2 == 1 }

// reencode decodes stored through want, encodes the tree into a fresh store
// and decodes that in full, returning the fresh pages by SID. A node want let
// go is copied as it is, so bytes a full Decode rejects make reencode abort
// too, at the latest in the last step. Any abort but ErrPageCorrupt fails t.
func reencode(t *testing.T, stored *Stored, store *pager.Store, want func(uint64) bool) (map[uint64][]byte, error) {
	scratch := pager.NewStore(stats.StructSignature, 256)
	var pages map[uint64][]byte
	err := corruptAbort(func() {
		enc := NewEncoder(fuzzFanout, fuzzHeight, scratch)
		out := enc.Encode(NewEncoder(fuzzFanout, fuzzHeight, store).Decode(stored, stats.New(), want))
		enc.Decode(out, stats.New(), wantAll)
		pages = make(map[uint64][]byte)
		for sid, page := range out.Partials() {
			pages[sid] = scratch.Read(page, stats.New())
		}
	})
	if err != nil && !errors.Is(err, errs.ErrPageCorrupt) {
		t.Fatalf("abort is not ErrPageCorrupt: %v", err)
	}
	return pages, err
}

// viewTuples enumerates the tuples under prefix the way a search meets them:
// top-down, through the marked slots only, in Node.Tuples' order.
func viewTuples(v *View, prefix []int) [][]int {
	var out [][]int
	var live bitvec.Bits
	live.SetAll(fuzzFanout)
	v.Probe(prefix, &live)
	for i := live.NextOne(0); i >= 0; i = live.NextOne(i + 1) {
		path := append(append([]int(nil), prefix...), i+1)
		if len(path) == fuzzHeight {
			out = append(out, path)
		} else {
			out = append(out, viewTuples(v, path)...)
		}
	}
	return out
}

// fuzzSeeds returns well-formed pages — a small signature's single partial
// under adaptive and under baseline node coding, and its two leaf-level nodes
// as a child partial headed by the path [1] — and the root partial that goes
// with the latter: the root and the node at [1], nothing below.
func fuzzSeeds() (seeds [][]byte, rootOnly []byte) {
	var full bitvec.Bits
	full.SetAll(fuzzFanout)
	sparse := bitvec.NewBits(fuzzFanout)
	sparse.Set(0, true)
	sparse.Set(5, true)
	leafA, leafB := &Node{Bits: &full}, &Node{Bits: sparse}
	mid := &Node{Bits: bitvec.NewBits(3), Kids: []*Node{leafA, nil, leafB}}
	mid.Bits.Set(0, true)
	mid.Bits.Set(2, true)
	root := &Node{Bits: bitvec.NewBits(2), Kids: []*Node{mid, nil}}
	root.Bits.Set(0, true)

	for _, baseline := range []bool{false, true} {
		store := pager.NewStore(stats.StructSignature, 256)
		enc := NewEncoder(fuzzFanout, fuzzHeight, store)
		enc.SetBaselineOnly(baseline)
		for _, page := range enc.Encode(root).Partials() {
			seeds = append(seeds, store.Read(page, stats.New()))
		}
	}
	codec := bitvec.NewCodec(fuzzFanout)
	partial := func(path []int, nodes ...*Node) []byte {
		var w bitvec.Writer
		w.WriteBits(uint64(len(path)), 8)
		for _, p := range path {
			w.WriteBits(uint64(p), 16)
		}
		w.WriteBits(uint64(len(nodes)), 32)
		for _, n := range nodes {
			codec.Encode(&w, n.Bits)
		}
		return w.Bytes()
	}
	return append(seeds, partial([]int{1}, leafA, leafB)), partial(nil, root, mid)
}

// TestFuzzSeedsAreWellFormed: the corpus starts from pages that decode, so
// the fuzzer mutates its way out of the valid format rather than into it.
func TestFuzzSeedsAreWellFormed(t *testing.T) {
	seeds, rootOnly := fuzzSeeds()
	for i, seed := range seeds {
		store := pager.NewStore(stats.StructSignature, 256)
		refs := map[uint64]pager.PageID{0: store.Append(seed)}
		if i == len(seeds)-1 {
			refs = map[uint64]pager.PageID{0: store.Append(rootOnly), hindex.SID([]int{1}, fuzzFanout): refs[0]}
		}
		stored := fuzzStored(refs)
		var tuples int
		if err := corruptAbort(func() {
			tuples = len(NewEncoder(fuzzFanout, fuzzHeight, store).Decode(stored, stats.New(), wantAll).Tuples(fuzzHeight))
		}); err != nil {
			t.Fatalf("seed %d does not decode: %v", i, err)
		}
		if tuples != fuzzFanout+2 {
			t.Fatalf("seed %d decodes to %d tuples, want %d", i, tuples, fuzzFanout+2)
		}
	}
}

// Or is the online disjunction assembly of §4.3.3 (exact at every level).
type Or []Tester

// Test implements Tester.
func (o Or) Test(path []int) bool {
	for _, t := range o {
		if t.Test(path) {
			return true
		}
	}
	return false
}

// Not complements a tester at the tuple level. At internal nodes a
// complement cannot be derived from the member signature alone (a subtree
// can contain both matching and non-matching tuples), so Not passes all
// internal nodes and is exact only on full tuple paths of the given height.
type Not struct {
	T      Tester
	Height int
}

// Test implements Tester.
func (n Not) Test(path []int) bool {
	if len(path) < n.Height {
		return true
	}
	return !n.T.Test(path)
}
