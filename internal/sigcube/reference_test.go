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

// Two reference implementations, both as naive as the text. The first is
// Alg. 3 to the letter: every child of an expanded node is pushed with its
// path, and its signature bit is tested when it is popped. It was the
// production loop once and stays verbatim; the scanner is held to its answers,
// its emission order and its verification reads, and may read no more of the
// partition than it does. The second (refScanner.rule) is Alg. 3 with the
// scanner's one rule stated to the letter: before a popped node is read, every
// child path is put to the tester in slot order; the node is read only if one
// passes, and the children that passed are pushed. That is the specification:
// the scanner charges its reads, structure by structure, request by request.

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

// refScanner is the progressive form of the reference loops.
type refScanner struct {
	idx    hindex.Index
	acc    hindex.Accessor
	tester signature.Tester
	verify func(table.TID) bool
	f      ranking.Func
	ctr    *stats.Counters
	cheap  *heap.Heap[refEntry]
	// rule selects the second loop: qualify a node's children before reading it.
	rule bool
}

func newRefScanner(idx hindex.Index, tester signature.Tester, verify func(table.TID) bool, f ranking.Func, rule bool, ctr *stats.Counters) *refScanner {
	s := &refScanner{idx: idx, tester: tester, verify: verify, f: f, ctr: ctr, cheap: heap.New[refEntry](lessRefEntry), rule: rule}
	if idx.Root() != hindex.InvalidNode {
		s.acc.Reset(idx, ctr)
		s.cheap.Push(refEntry{score: f.LowerBound(idx.NodeBox(idx.Root(), idx.Domain().Clone())), node: idx.Root()})
	}
	return s
}

// step pops one entry; it reports a tuple when the entry was one that passed.
func (s *refScanner) step() (core.Result, bool) {
	if s.rule {
		return s.stepRule()
	}
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
	s.acc.Visit(e.node)
	if s.idx.IsLeaf(e.node) {
		for slot, le := range s.idx.LeafEntries(e.node) {
			s.cheap.Push(refEntry{score: s.f.Eval(le.Point), isTuple: true, tid: le.TID, path: refChildPath(e.path, slot)})
		}
		return core.Result{}, false
	}
	for slot, ch := range s.idx.Children(e.node) {
		s.cheap.Push(refEntry{score: s.f.LowerBound(ch.Box), node: ch.ID, path: refChildPath(e.path, slot)})
	}
	return core.Result{}, false
}

// stepRule is step under the rule. Whatever is on the heap has passed the
// test already; a popped node's children are tested, all of them and in slot
// order, before its page is asked for.
func (s *refScanner) stepRule() (core.Result, bool) {
	e := s.cheap.Pop()
	if e.isTuple {
		if s.verify != nil && !s.verify(e.tid) {
			return core.Result{}, false
		}
		return core.Result{TID: e.tid, Score: e.score}, true
	}
	passes, any := make([]bool, s.idx.NumChildren(e.node)), false
	for slot := range passes {
		passes[slot] = s.tester.Test(refChildPath(e.path, slot))
		any = any || passes[slot]
	}
	if !any {
		return core.Result{}, false
	}
	s.acc.Visit(e.node)
	if s.idx.IsLeaf(e.node) {
		for slot, le := range s.idx.LeafEntries(e.node) {
			if passes[slot] {
				s.cheap.Push(refEntry{score: s.f.Eval(le.Point), isTuple: true, tid: le.TID})
			}
		}
		return core.Result{}, false
	}
	for slot, ch := range s.idx.Children(e.node) {
		if passes[slot] {
			s.cheap.Push(refEntry{score: s.f.LowerBound(ch.Box), node: ch.ID, path: refChildPath(e.path, slot)})
		}
	}
	return core.Result{}, false
}

// live reports whether the search has an entry left that can be an answer: a
// +Inf entry is outside a constrained function's band, and so is all behind it.
func (s *refScanner) live() bool {
	return s.cheap.Len() > 0 && !math.IsInf(s.cheap.Min().score, 1)
}

func (s *refScanner) Next() (core.Result, bool) {
	for s.live() {
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

// topK is the bounded form: stop at the first pop the current kth score
// already beats.
func (s *refScanner) topK(k int) []core.Result {
	topk := heap.NewBounded[core.Result](k, core.WorseResult)
	for s.live() {
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

// withinLetter holds the scanner's reads to those of Alg. 3's letter: the
// verification reads equal, the partition reads no more — and no fewer when
// the tester is one exact cell or none, whose set bit already promises a
// child with its bit set.
func withinLetter(t *testing.T, what string, got, letter *stats.Counters, equal bool) {
	t.Helper()
	if g, w := got.Reads(stats.StructTable), letter.Reads(stats.StructTable); g != w {
		t.Fatalf("%s: table reads %d, Alg. 3 %d", what, g, w)
	}
	g, w := got.Reads(stats.StructRTree), letter.Reads(stats.StructRTree)
	if g > w || equal && g != w {
		t.Fatalf("%s: rtree reads %d, Alg. 3 %d (must be equal: %v)", what, g, w, equal)
	}
}

// request puts one condition to a search: the tester and the verification
// hook assembled over the given counters, a nil tester when a cell the
// condition needs is empty.
type request func(ctr *stats.Counters) (signature.Tester, func(table.TID) bool)

// checkTopK answers one top-k request with the scanner and with both
// reference loops, each over a tester and counters of its own.
func checkTopK(t *testing.T, what string, idx hindex.Index, req request, f ranking.Func, k int, equal bool) []core.Result {
	t.Helper()
	gotCtr, letterCtr, ruleCtr := stats.New(), stats.New(), stats.New()
	tester, verify := req(gotCtr)
	if tester == nil {
		return nil
	}
	got := newScanner(idx, tester, verify, f, gotCtr).take(k)
	tester, verify = req(letterCtr)
	letter := newRefScanner(idx, tester, verify, f, false, letterCtr).topK(k)
	tester, verify = req(ruleCtr)
	rule := newRefScanner(idx, tester, verify, f, true, ruleCtr).topK(k)
	for name, want := range map[string][]core.Result{"Alg. 3": letter, "the rule": rule} {
		if !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results\n got %v\n%s %v", what, got, name, want)
		}
	}
	withinLetter(t, what, gotCtr, letterCtr, equal)
	sameReads(t, what, gotCtr, ruleCtr)
	return got
}

// checkScan pulls up to limit tuples from the open scan and from both
// reference loops in step: the same tuple each time, the rule's reads after
// every one, within Alg. 3's after every one, and a bound never below Alg. 3's.
func checkScan(t *testing.T, what string, idx hindex.Index, req request, f ranking.Func, limit int, equal bool) {
	t.Helper()
	gotCtr, letterCtr, ruleCtr := stats.New(), stats.New(), stats.New()
	tester, verify := req(gotCtr)
	if tester == nil {
		return
	}
	sc := newScanner(idx, tester, verify, f, gotCtr)
	tester, verify = req(letterCtr)
	letter := newRefScanner(idx, tester, verify, f, false, letterCtr)
	tester, verify = req(ruleCtr)
	rule := newRefScanner(idx, tester, verify, f, true, ruleCtr)
	for n := 0; n < limit; n++ {
		if sc.Bound() < letter.Bound() {
			t.Fatalf("%s: bound %v below Alg. 3's %v after %d tuples", what, sc.Bound(), letter.Bound(), n)
		}
		g, gok := sc.Next()
		w, wok := letter.Next()
		r, rok := rule.Next()
		if gok != wok || g != w || gok != rok || g != r {
			t.Fatalf("%s: tuple %d: got %v/%v, Alg. 3 %v/%v, the rule %v/%v", what, n, g, gok, w, wok, r, rok)
		}
		if !gok {
			break
		}
		after := fmt.Sprintf("%s after %d tuples", what, n+1)
		withinLetter(t, after, gotCtr, letterCtr, equal)
		sameReads(t, after, gotCtr, ruleCtr)
	}
}

// refCase is one cube under test with the conditions to put to it.
type refCase struct {
	name  string
	cube  *Cube
	conds []core.Cond
}

// cell is the request a cube's own TopK and Scan make for cond.
func (rc refCase) cell(t *testing.T, cond core.Cond) request {
	return func(ctr *stats.Counters) (signature.Tester, func(table.TID) bool) {
		tester, any, err := rc.cube.TesterFor(cond, ctr)
		if err != nil {
			t.Fatalf("%s %v: %v", rc.name, cond, err)
		}
		if !any {
			return nil, nil
		}
		return tester, rc.cube.Verifier(cond, ctr)
	}
}

// oneExactCell reports whether cond's tester is a single exact cell or none:
// the requests on which the rule can save no partition read.
func (rc refCase) oneExactCell(cond core.Cond) bool {
	return !rc.cube.cfg.LossySignatures && (len(cond) <= 1 || rc.cube.Cuboid(cond.Dims()) != nil)
}

// matches counts the live tuples matching cond that f, if given, scores
// finitely: the answers a search drained to the end returns.
func (rc refCase) matches(cond core.Cond, f ranking.Func) int {
	n, tb := 0, rc.cube.Table()
	for i := 0; i < tb.Len(); i++ {
		tid := table.TID(i)
		if rc.cube.Alive(tid) && tb.Matches(tid, cond) && (f == nil || !math.IsInf(f.Eval(tb.RankRow(tid, nil)), 1)) {
			n++
		}
	}
	return n
}

func refFuncs(rng *rand.Rand) map[string]ranking.Func {
	return map[string]ranking.Func{
		"linear":  ranking.Linear([]int{0, 1, 2}, []float64{0.2 + rng.Float64(), 0.2 + rng.Float64(), 0.2 + rng.Float64()}),
		"sqdist":  ranking.SqDist([]int{0, 1, 2}, []float64{rng.Float64(), rng.Float64(), rng.Float64()}),
		"general": ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(0.5+rng.Float64(), ranking.Var(0)), ranking.Add(ranking.Var(1), ranking.Var(2))))),
		// The fc class: a tuple outside the band scores +Inf and is no answer.
		"constrained": ranking.Constrained(ranking.Sum(0, 1, 2), 0, 0.3, 0.5),
	}
}

// scanLimit stops some scans part-way: a rank join rarely drains its source.
func scanLimit(rng *rand.Rand, matches int) int {
	if rng.Intn(2) == 0 {
		return 1 + rng.Intn(matches+1)
	}
	return matches + 1
}

// checkAgainstReference puts every (condition, function, k), and every
// condition's open scan, to the cube's own testers.
func checkAgainstReference(t *testing.T, rc refCase, rng *rand.Rand) {
	t.Helper()
	rt := rc.cube.Tree()
	for ci, cond := range rc.conds {
		matches, req, equal := rc.matches(cond, nil), rc.cell(t, cond), rc.oneExactCell(cond)
		for fname, f := range refFuncs(rng) {
			answers := rc.matches(cond, f)
			for _, k := range []int{1, 10, matches + 5} {
				what := fmt.Sprintf("%s cond#%d %v %s k=%d", rc.name, ci, cond, fname, k)
				if res := checkTopK(t, what, rt, req, f, k, equal); k > matches && len(res) != answers {
					t.Fatalf("%s: %d results for %d matching tuples in f's range", what, len(res), answers)
				}
			}
			what := fmt.Sprintf("%s cond#%d %v %s scan", rc.name, ci, cond, fname)
			checkScan(t, what, rt, req, f, scanLimit(rng, matches), equal)
		}
	}
}

// testOnly hides everything but Test: the shape of a timing or counting
// wrapper, which the scanner can only ask about one path at a time.
type testOnly struct{ signature.Tester }

// wrapped is req with its tester behind testOnly.
func wrapped(req request) request {
	return func(ctr *stats.Counters) (signature.Tester, func(table.TID) bool) {
		tester, verify := req(ctr)
		if tester == nil {
			return nil, nil
		}
		return testOnly{tester}, verify
	}
}

// checkOpaqueAgainstReference puts testers without bit vectors of their own —
// each cell's tester behind a Test-only wrapper, a disjunction of two cells,
// a cell less another — through the scanner and the reference loops. They are
// asked about one path at a time, so the loads their members make lazily
// must still fall where the rule's letter makes them.
func checkOpaqueAgainstReference(t *testing.T, rc refCase, rng *rand.Rand) {
	t.Helper()
	rt := rc.cube.Tree()
	one, other := rc.cell(t, rc.conds[1]), rc.cell(t, core.Cond{0: rc.conds[2][0]})
	pair := func(ctr *stats.Counters) (a, b signature.Tester) {
		a, _ = one(ctr)
		b, _ = other(ctr)
		return a, b
	}
	type opaque struct {
		req   request
		equal bool
	}
	builds := map[string]opaque{
		"or": {req: func(ctr *stats.Counters) (signature.Tester, func(table.TID) bool) {
			a, b := pair(ctr)
			return Or{a, b}, nil
		}},
		"and-not": {req: func(ctr *stats.Counters) (signature.Tester, func(table.TID) bool) {
			a, b := pair(ctr)
			return signature.And{a, Not{T: b, Height: rt.Height()}}, nil
		}},
	}
	for ci, cond := range rc.conds {
		builds[fmt.Sprintf("wrapped cond#%d", ci)] = opaque{wrapped(rc.cell(t, cond)), rc.oneExactCell(cond)}
	}
	for name, b := range builds {
		for fname, f := range refFuncs(rng) {
			for _, k := range []int{1, 10, rc.cube.Table().Len()} {
				checkTopK(t, fmt.Sprintf("%s %s %s k=%d", rc.name, name, fname, k), rt, b.req, f, k, b.equal)
			}
			checkScan(t, fmt.Sprintf("%s %s %s scan", rc.name, name, fname), rt, b.req, f, scanLimit(rng, 40), b.equal)
		}
	}
}

// refConds draws the five kinds of condition over a 3-dimension relation
// whose cuboid {0,1} may or may not be materialized: none, one cell, a
// 2-dimension cell (exact cell or AND of atomic cells), a 3-dimension cell
// (always an AND of three: the only shape in which a stage other than the
// last can leave nothing for the next to look at), and a 2-dimension cell
// whose members are non-empty but share no tuple.
func refConds(tb *table.Table, rng *rand.Rand) []core.Cond {
	card := tb.Schema().SelCard
	conds := []core.Cond{
		{},
		{2: int32(rng.Intn(card[2]))},
		{0: tb.Sel(0, 0), 1: tb.Sel(0, 1)},
		{1: tb.Sel(1, 1), 2: tb.Sel(1, 2)},
		{0: tb.Sel(2, 0), 1: tb.Sel(2, 1), 2: tb.Sel(2, 2)},
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

var refSpecs = []table.GenSpec{
	{T: 2500, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.Uniform},
	{T: 2500, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.Uniform, SelZipf: 1.2},
	{T: 2500, S: 3, R: 3, Cards: []int{12, 12, 5}, Dist: table.AntiCorrelated},
}

// refCases builds the cubes the oracle runs over for the si-th relation —
// exact over atomic cuboids, exact with the {0,1} cuboid, exact over a grid
// partition, lossy, and exact after maintenance — with the rng the checks
// draw from.
func refCases(si, pageSize int) ([]refCase, *rand.Rand) {
	spec := refSpecs[si]
	spec.Seed = int64(100 + si)
	// Not the relation's seed: inserted tuples must not repeat its rows,
	// or exact score ties make the emission order a matter of heap layout.
	rng := rand.New(rand.NewSource(spec.Seed + 1000))
	atomic := [][]int{{0}, {1}, {2}}
	withCell := append([][]int{{0, 1}}, atomic...)
	fanout := rtree.Config{Fanout: 6 + 3*si}

	tb := table.Generate(spec)
	conds := refConds(tb, rng)
	grid := gridtree.Build(tb, []int{0, 1, 2}, ranking.NewBox(tb.RankBounds()), gridtree.Config{Fanout: 9, BlockSize: 40})
	cases := []refCase{
		{"exact/atomic", Build(tb, Config{PageSize: pageSize, RTree: fanout, Cuboids: atomic}), conds},
		{"exact/cell", Build(tb, Config{PageSize: pageSize, RTree: fanout, Cuboids: withCell}), conds},
		{"exact/grid", BuildOnTree(tb, grid, Config{PageSize: pageSize, Cuboids: atomic}), conds},
		{"lossy", Build(tb, Config{PageSize: pageSize, RTree: fanout, LossySignatures: true}), conds},
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
	cases = append(cases, refCase{"maintained", cube, conds})
	for i := range cases {
		cases[i].name = fmt.Sprintf("%s/%s/page=%d", spec.Dist, cases[i].name, pageSize)
	}
	return cases, rng
}

// refPageSizes: pages of 96 bytes cut every cell's signature into dozens of
// partials, so a load made at the wrong moment shows up as a read; at the
// default size a partial covers hundreds of nodes, as it does in service.
var refPageSizes = []int{96, 0}

// TestScannerMatchesReference is the read-equivalence property in its two
// tiers: over random relations, partitions, measures, conditions, functions
// and k, before and after maintenance that splits nodes, the scanner answers
// exactly as the letter of Alg. 3 does, in its order, with its verification
// reads and no more of the partition than it reads; and it charges exactly the
// block reads of the rule's letter, structure by structure.
func TestScannerMatchesReference(t *testing.T) {
	for si := range refSpecs {
		for _, pageSize := range refPageSizes {
			cases, rng := refCases(si, pageSize)
			for _, rc := range cases {
				checkAgainstReference(t, rc, rng)
				checkOpaqueAgainstReference(t, rc, rng)
			}
		}
	}
}

// Or is the online disjunction assembly of §4.3.3 (exact at every level).
type Or []signature.Tester

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
	T      signature.Tester
	Height int
}

// Test implements Tester.
func (n Not) Test(path []int) bool {
	if len(path) < n.Height {
		return true
	}
	return !n.T.Test(path)
}
