package sigcube

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/gridtree"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// The reference implementation: Alg. 3 to the letter. Every child of an
// expanded node is pushed with its path, and its signature bit is tested when
// it is popped. This was the production loop until the scanner took over; it
// stays here as the oracle the scanner's answers and block reads are held to.

type refEntry struct {
	score   float64
	isTuple bool
	node    hindex.NodeID
	tid     table.TID
	path    []int
}

func lessRefEntry(a, b refEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.isTuple && !b.isTuple
}

func refChildPath(parent []int, slot int) []int {
	out := make([]int, len(parent)+1)
	copy(out, parent)
	out[len(parent)] = slot + 1
	return out
}

// refScanner is the progressive form of the reference loop.
type refScanner struct {
	idx    hindex.Index
	acc    *hindex.Accessor
	tester signature.Tester
	verify func(table.TID) bool
	f      ranking.Func
	ctr    *stats.Counters
	cheap  *heap.Heap[refEntry]
}

func newRefScanner(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, ctr *stats.Counters) *refScanner {
	s := &refScanner{idx: idx, tester: tester, verify: verify, f: f, ctr: ctr, cheap: heap.New[refEntry](lessRefEntry)}
	if idx.Root() != hindex.InvalidNode {
		s.acc = hindex.NewAccessor(idx, ctr)
		s.cheap.Push(refEntry{score: f.LowerBound(idx.NodeBox(idx.Root())), node: idx.Root()})
	}
	return s
}

// step pops one entry; it reports a tuple when the entry was one that passed.
func (s *refScanner) step() (core.Result, bool) {
	e := s.cheap.Pop()
	if !s.tester.Test(e.path) {
		return core.Result{}, false
	}
	if e.isTuple {
		if s.verify != nil && !s.verify(e.tid) {
			return core.Result{}, false
		}
		return core.Result{TID: e.tid, Score: e.score}, true
	}
	if s.idx.IsLeaf(e.node) {
		for slot, le := range s.acc.LeafEntries(e.node) {
			s.cheap.Push(refEntry{score: s.f.Eval(le.Point), isTuple: true, tid: le.TID, path: refChildPath(e.path, slot)})
		}
		return core.Result{}, false
	}
	for slot, ch := range s.acc.Children(e.node) {
		s.cheap.Push(refEntry{score: s.f.LowerBound(ch.Box), node: ch.ID, path: refChildPath(e.path, slot)})
	}
	return core.Result{}, false
}

func (s *refScanner) Next() (core.Result, bool) {
	for s.cheap.Len() > 0 {
		if res, ok := s.step(); ok {
			return res, true
		}
	}
	return core.Result{}, false
}

func (s *refScanner) Bound() float64 {
	if s.cheap.Len() == 0 {
		return math.Inf(1)
	}
	return s.cheap.Min().score
}

// refTopK is the bounded form: stop at the first pop the current kth score
// already beats.
func refTopK(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, k int, ctr *stats.Counters) []core.Result {
	s := newRefScanner(idx, tester, verify, f, ctr)
	topk := heap.NewBounded[core.Result](k, core.WorseResult)
	for s.cheap.Len() > 0 {
		if topk.Full() && topk.Worst().Score <= s.cheap.Min().score {
			break
		}
		if res, ok := s.step(); ok {
			topk.Offer(res)
		}
	}
	return topk.Sorted()
}

var refStructures = []stats.Structure{stats.StructRTree, stats.StructSignature, stats.StructTable}

func sameReads(t *testing.T, what string, got, want *stats.Counters) {
	t.Helper()
	for _, s := range refStructures {
		if got.Reads(s) != want.Reads(s) {
			t.Fatalf("%s: %s reads %d, reference %d", what, s, got.Reads(s), want.Reads(s))
		}
	}
}

// refCase is one cube under test with the conditions to put to it.
type refCase struct {
	name  string
	cube  *Cube
	conds []core.Cond
}

func refFuncs(rng *rand.Rand) map[string]ranking.Func {
	return map[string]ranking.Func{
		"linear":  ranking.Linear([]int{0, 1, 2}, []float64{0.2 + rng.Float64(), 0.2 + rng.Float64(), 0.2 + rng.Float64()}),
		"sqdist":  ranking.SqDist([]int{0, 1, 2}, []float64{rng.Float64(), rng.Float64(), rng.Float64()}),
		"general": ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(0.5+rng.Float64(), ranking.Var(0)), ranking.Add(ranking.Var(1), ranking.Var(2))))),
	}
}

// checkAgainstReference puts every (condition, function, k) to the cube
// through the scanner and through the reference loop, each with a tester and
// counters of its own, and requires the same answers and the same reads per
// structure; then the same for the open scan, whose bound must never fall
// below the reference's.
func checkAgainstReference(t *testing.T, rc refCase, rng *rand.Rand) {
	t.Helper()
	rt := rc.cube.Tree()
	for ci, cond := range rc.conds {
		matches := 0
		for i := 0; i < rc.cube.Table().Len(); i++ {
			if tid := table.TID(i); rc.cube.Alive(tid) && rc.cube.Table().Matches(tid, cond) {
				matches++
			}
		}
		for fname, f := range refFuncs(rng) {
			for _, k := range []int{1, 10, matches + 5} {
				what := fmt.Sprintf("%s cond#%d %v %s k=%d", rc.name, ci, cond, fname, k)
				gotCtr, wantCtr := stats.New(), stats.New()
				res, err := rc.cube.TopK(cond, f, k, gotCtr)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				tester, any, err := rc.cube.TesterFor(cond, wantCtr)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				var want []core.Result
				if any {
					want = refTopK(rt, tester, rc.cube.Verifier(cond, wantCtr), f, k, wantCtr)
				}
				if !(len(res) == 0 && len(want) == 0) && !reflect.DeepEqual(res, want) {
					t.Fatalf("%s: results\n got %v\nwant %v", what, res, want)
				}
				if k > matches && len(res) != matches {
					t.Fatalf("%s: %d results for %d matching tuples", what, len(res), matches)
				}
				sameReads(t, what, gotCtr, wantCtr)
			}

			what := fmt.Sprintf("%s cond#%d %v %s scan", rc.name, ci, cond, fname)
			gotCtr, wantCtr := stats.New(), stats.New()
			sc, err := rc.cube.Scan(cond, f, gotCtr)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			tester, any, err := rc.cube.TesterFor(cond, wantCtr)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !any {
				if _, ok := sc.Next(); ok {
					t.Fatalf("%s: scan of an empty cell emitted a tuple", what)
				}
				continue
			}
			ref := newRefScanner(rt, tester, rc.cube.Verifier(cond, wantCtr), f, wantCtr)
			// Stop part-way on some scans: a rank join rarely drains its source.
			limit := matches + 1
			if rng.Intn(2) == 0 {
				limit = 1 + rng.Intn(matches+1)
			}
			for n := 0; n < limit; n++ {
				if sc.Bound() < ref.Bound() {
					t.Fatalf("%s: bound %v below the reference's %v after %d tuples", what, sc.Bound(), ref.Bound(), n)
				}
				g, gok := sc.Next()
				w, wok := ref.Next()
				if gok != wok || g != w {
					t.Fatalf("%s: tuple %d: got %v/%v, reference %v/%v", what, n, g, gok, w, wok)
				}
				if !gok {
					break
				}
				sameReads(t, fmt.Sprintf("%s after %d tuples", what, n+1), gotCtr, wantCtr)
			}
		}
	}
}

// testOnly hides everything but Test: the shape of a timing or counting
// wrapper, which the scanner has to treat as opaque.
type testOnly struct{ signature.Tester }

// checkOpaqueAgainstReference puts testers without bit vectors of their own —
// each cell's tester behind a Test-only wrapper, a disjunction of two cells,
// a cell less another — through the scanner and the reference loop. They are
// asked about one path at a time, so the loads their members make lazily
// must still fall where the reference makes them.
func checkOpaqueAgainstReference(t *testing.T, rc refCase, rng *rand.Rand) {
	t.Helper()
	rt := rc.cube.Tree()
	cell := func(cond core.Cond, ctr *stats.Counters) signature.Tester {
		tester, any, err := rc.cube.TesterFor(cond, ctr)
		if err != nil {
			t.Fatalf("%s %v: %v", rc.name, cond, err)
		}
		if !any {
			return nil
		}
		return tester
	}
	one, other := rc.conds[1], core.Cond{0: rc.conds[2][0]}
	builds := map[string]func(*stats.Counters) signature.Tester{
		"or": func(ctr *stats.Counters) signature.Tester { return signature.Or{cell(one, ctr), cell(other, ctr)} },
		"and-not": func(ctr *stats.Counters) signature.Tester {
			return signature.And{cell(one, ctr), signature.Not{T: cell(other, ctr), Height: rt.Height()}}
		},
	}
	for ci, cond := range rc.conds {
		// The scanner takes the root as qualified: no tester is assembled
		// for a cell that holds no tuple.
		if cell(cond, stats.New()) == nil {
			continue
		}
		builds[fmt.Sprintf("wrapped cond#%d", ci)] = func(ctr *stats.Counters) signature.Tester {
			return testOnly{cell(cond, ctr)}
		}
	}
	for name, build := range builds {
		for fname, f := range refFuncs(rng) {
			for _, k := range []int{1, 10, rc.cube.Table().Len()} {
				what := fmt.Sprintf("%s %s %s k=%d", rc.name, name, fname, k)
				gotCtr, wantCtr := stats.New(), stats.New()
				got := SearchTopK(rt, build(gotCtr), f, k, gotCtr)
				want := refTopK(rt, build(wantCtr), nil, f, k, wantCtr)
				if !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: results\n got %v\nwant %v", what, got, want)
				}
				sameReads(t, what, gotCtr, wantCtr)
			}
		}
	}
}

// refConds draws the four kinds of condition over a 3-dimension relation
// whose cuboid {0,1} may or may not be materialized: none, one cell, a
// 2-dimension cell (exact cell or AND of atomic cells), and a 2-dimension
// cell whose members are non-empty but share no tuple.
func refConds(tb *table.Table, rng *rand.Rand) []core.Cond {
	card := tb.Schema().SelCard
	conds := []core.Cond{
		{},
		{2: int32(rng.Intn(card[2]))},
		{0: tb.Sel(0, 0), 1: tb.Sel(0, 1)},
		{1: tb.Sel(1, 1), 2: tb.Sel(1, 2)},
	}
	seen := make(map[[2]int32]bool)
	for i := 0; i < tb.Len(); i++ {
		seen[[2]int32{tb.Sel(table.TID(i), 0), tb.Sel(table.TID(i), 1)}] = true
	}
	for a := int32(0); a < int32(card[0]); a++ {
		for b := int32(0); b < int32(card[1]); b++ {
			if !seen[[2]int32{a, b}] {
				return append(conds, core.Cond{0: a, 1: b})
			}
		}
	}
	return conds
}

// TestScannerMatchesReference is the read-equivalence property: over random
// relations, partitions, measures, conditions, functions and k, before and
// after maintenance that splits nodes, the scanner answers exactly as the
// reference loop does and charges exactly its block reads, structure by
// structure.
func TestScannerMatchesReference(t *testing.T) {
	specs := []table.GenSpec{
		{T: 2500, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.Uniform},
		{T: 2500, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.Uniform, SelZipf: 1.2},
		{T: 2500, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.AntiCorrelated},
	}
	for si, spec := range specs {
		spec.Seed = int64(100 + si)
		// Not the relation's seed: inserted tuples must not repeat its rows,
		// or exact score ties make the emission order a matter of heap layout.
		rng := rand.New(rand.NewSource(spec.Seed + 1000))
		atomic := [][]int{{0}, {1}, {2}}
		withCell := append([][]int{{0, 1}}, atomic...)
		fanout := rtree.Config{Fanout: 6 + 3*si}
		// Pages this small cut every cell's signature into dozens of
		// partials, so a load made at the wrong moment shows up as a read.
		const pageSize = 96

		tb := table.Generate(spec)
		conds := refConds(tb, rng)
		grid := gridtree.Build(tb, []int{0, 1, 2}, ranking.NewBox(tb.RankBounds()), gridtree.Config{Fanout: 9, BlockSize: 40})
		for _, rc := range []refCase{
			{"exact/atomic", Build(tb, Config{PageSize: pageSize, RTree: fanout, Cuboids: atomic}), conds},
			{"exact/cell", Build(tb, Config{PageSize: pageSize, RTree: fanout, Cuboids: withCell}), conds},
			{"exact/grid", BuildOnTree(tb, grid, Config{PageSize: pageSize, Cuboids: atomic}), conds},
			{"lossy", Build(tb, Config{PageSize: pageSize, RTree: fanout, LossySignatures: true}), conds},
		} {
			rc.name = fmt.Sprintf("%s/%s", spec.Dist, rc.name)
			checkAgainstReference(t, rc, rng)
			checkOpaqueAgainstReference(t, rc, rng)
		}

		// Maintenance on a copy of the relation: inserts split leaves and
		// the root, deletes condense, and cells the updates did not touch
		// keep signature nodes narrower than the index nodes grew to.
		grown := table.Generate(spec)
		cube := Build(grown, Config{PageSize: pageSize, RTree: fanout, Cuboids: withCell})
		for i := 0; i < 300; i++ {
			if i%3 == 2 {
				cube.Delete(table.TID(rng.Intn(grown.Len())), stats.New())
				continue
			}
			sel := []int32{int32(rng.Intn(12)), int32(rng.Intn(12)), int32(rng.Intn(5))}
			cube.Insert(sel, []float64{rng.Float64(), rng.Float64(), rng.Float64()}, stats.New())
		}
		maintained := refCase{fmt.Sprintf("%s/maintained", spec.Dist), cube, conds}
		checkAgainstReference(t, maintained, rng)
		checkOpaqueAgainstReference(t, maintained, rng)
	}
}
