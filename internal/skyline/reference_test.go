package skyline

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/gridtree"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Two reference implementations, both as naive as the text. The first is
// fig. 7.1 to the letter: every child of an expanded node is pushed with its
// path and its corner, and is tested — for domination first, then against the
// signature — when it is popped; a drill-down checks the previous skyline's
// members against the relation, one random access each. It was the production
// loop once and stays verbatim; the search is held to its answers and its
// emission order, and may read no more of the partition or the relation than
// it does. The second (rule set) is fig. 7.1 with the search's two rules stated
// to the letter. First: before a popped node is read, every child path is put
// to the tester in slot order; the node is read only if one passes, and the
// children that passed are pushed. With it goes the drill-down's other half: on
// an exact cube a member of the previous skyline is checked by putting its
// tuple path to the tightened predicate's tester. Second: a navigation chain
// pays for a node's page once — the loop keeps the set of nodes its own chain
// has read, and a node in it is read again uncharged. That is the
// specification: the search charges its reads, structure by structure, request
// by request, down any chain of drill-downs and roll-ups.

type refEntry struct {
	mindist float64
	isTuple bool
	node    hindex.NodeID
	tid     table.TID
	path    []int
	corner  []float64
}

func lessRefEntry(a, b refEntry) bool {
	if a.mindist != b.mindist {
		return a.mindist < b.mindist
	}
	return a.isTuple && !b.isTuple
}

// refSnapshot is what the old loop kept for navigation: every entry it pruned
// by domination, whether or not the entry would have passed the boolean test.
// Under the rules it also keeps the nodes its chain has read; the letter keeps
// none and pays for every node it reads.
type refSnapshot struct {
	query   Query
	skyline []Result
	pruned  []refEntry
	held    map[hindex.NodeID]bool
}

// refNext starts the snapshot of q, a step away from prev: under the rules it
// holds what prev's chain has read.
func refNext(prev *refSnapshot, q Query) *refSnapshot {
	return &refSnapshot{query: q, held: maps.Clone(prev.held)}
}

func refLowerCorner(q Query, box ranking.Box) []float64 {
	out := make([]float64, 0, len(q.Dims))
	for i, d := range q.Dims {
		if q.Target == nil {
			out = append(out, box.Lo[d])
			continue
		}
		t := q.Target[i]
		switch {
		case t < box.Lo[d]:
			out = append(out, box.Lo[d]-t)
		case t > box.Hi[d]:
			out = append(out, t-box.Hi[d])
		default:
			out = append(out, 0)
		}
	}
	return out
}

func refPoint(q Query, vals []float64) []float64 {
	out := make([]float64, 0, len(q.Dims))
	for i, d := range q.Dims {
		v := vals[d]
		if q.Target != nil {
			if v -= q.Target[i]; v < 0 {
				v = -v
			}
		}
		out = append(out, v)
	}
	return out
}

func refChildPath(parent []int, slot int) []int {
	out := make([]int, len(parent)+1)
	copy(out, parent)
	out[len(parent)] = slot + 1
	return out
}

func refPrunedBy(sky []Result, en refEntry) bool {
	for i := range sky {
		if dominates(sky[i].Coord, en.corner) {
			return true
		}
	}
	return false
}

func refRoot(q Query, rt hindex.Index) *heap.Heap[refEntry] {
	h := heap.New[refEntry](lessRefEntry)
	corner := refLowerCorner(q, refNodeBox(rt, rt.Root()))
	h.Push(refEntry{mindist: sum(corner), node: rt.Root(), corner: corner})
	return h
}

// refNodeBox is node id's bounds widened to the full width with the domain,
// as Children widens its entries.
func refNodeBox(idx hindex.Index, id hindex.NodeID) ranking.Box {
	box, dims := idx.Domain().Clone(), idx.Dims()
	lo, hi := make([]float64, len(dims)), make([]float64, len(dims))
	idx.NodeRect(id, lo, hi)
	return ranking.NewBox(ranking.Widen(box.Lo, dims, lo), ranking.Widen(box.Hi, dims, hi))
}

// refRun is the old BBS loop; rule qualifies a node's children before reading
// it, and reads the nodes snap holds without charge. verify is the cube's
// (nil on an exact cube).
func refRun(e *Engine, q Query, tester signature.Tester, h *heap.Heap[refEntry], sky []Result, snap *refSnapshot, rule bool, verify func(table.TID) bool, ctr *stats.Counters) []Result {
	rt := e.cube.Tree()
	var acc hindex.Accessor
	acc.Reset(rt, ctr)
	for h.Len() > 0 {
		ctr.ObserveHeap(h.Len())
		en := h.Pop()
		ctr.StatesExamined++
		if refPrunedBy(sky, en) {
			ctr.DominationPruned++
			snap.pruned = append(snap.pruned, en)
			continue
		}
		// Under the rule a child was tested before it was pushed: asking again
		// is free.
		if !tester.Test(en.path) {
			ctr.Pruned++
			continue
		}
		if en.isTuple {
			// Not in the old loop, which let a lossy cube's false positives into
			// the skyline: the bug was its own as much as the search's.
			if verify != nil && !verify(en.tid) {
				ctr.Pruned++
				continue
			}
			sky = append(sky, Result{TID: en.tid, Coord: en.corner})
			continue
		}
		passes, any := make([]bool, rt.NumChildren(en.node)), !rule
		for slot := range passes {
			passes[slot] = !rule || tester.Test(refChildPath(en.path, slot))
			any = any || passes[slot]
		}
		if !any {
			continue
		}
		if !rule || !snap.held[en.node] {
			acc.Visit(en.node)
		}
		if rule {
			snap.held[en.node] = true
		}
		if rt.IsLeaf(en.node) {
			for slot, le := range rt.LeafEntries(en.node) {
				if passes[slot] {
					pt := refPoint(q, le.Point)
					h.Push(refEntry{mindist: sum(pt), isTuple: true, tid: le.TID, path: refChildPath(en.path, slot), corner: pt})
					ctr.StatesGenerated++
				}
			}
			continue
		}
		for slot, ch := range rt.Children(en.node) {
			if passes[slot] {
				corner := refLowerCorner(q, ch.Box)
				h.Push(refEntry{mindist: sum(corner), node: ch.ID, path: refChildPath(en.path, slot), corner: corner})
				ctr.StatesGenerated++
			}
		}
	}
	return sky
}

func refSkyline(e *Engine, q Query, tester signature.Tester, rule bool, ctr *stats.Counters) ([]Result, *refSnapshot) {
	snap := &refSnapshot{query: q}
	if rule {
		snap.held = map[hindex.NodeID]bool{}
	}
	snap.skyline = refRun(e, q, tester, refRoot(q, e.cube.Tree()), nil, snap, rule, e.cube.Verifier(q.Cond, ctr), ctr)
	return snap.skyline, snap
}

func refDrillDown(e *Engine, prev *refSnapshot, q Query, tester signature.Tester, rule bool, ctr *stats.Counters) ([]Result, *refSnapshot) {
	snap := refNext(prev, q)
	verify := e.cube.Verifier(q.Cond, ctr)
	bySignature := rule && verify == nil
	// A seed checked against the relation is a random access of the query's:
	// its page is charged once, whether a seed or the run touches it first.
	access := verify
	if access == nil {
		access = e.cube.Heap().Verifier(q.Cond, ctr)
	}
	var survivors []Result
	for _, r := range prev.skyline {
		if bySignature {
			if tester.Test(e.cube.Tree().TuplePath(r.TID)) {
				survivors = append(survivors, r)
			}
			continue
		}
		if access(r.TID) {
			survivors = append(survivors, r)
		}
	}
	h := heap.New[refEntry](lessRefEntry)
	for _, en := range prev.pruned {
		if refPrunedBy(survivors, en) {
			ctr.DominationPruned++
			snap.pruned = append(snap.pruned, en)
			continue
		}
		h.Push(en)
	}
	snap.skyline = refRun(e, q, tester, h, survivors, snap, rule, verify, ctr)
	return snap.skyline, snap
}

func refRollUp(e *Engine, prev *refSnapshot, q Query, tester signature.Tester, rule bool, ctr *stats.Counters) ([]Result, *refSnapshot) {
	snap := refNext(prev, q)
	seeds := append([]Result(nil), prev.skyline...)
	sky := refRun(e, q, tester, refRoot(q, e.cube.Tree()), seeds, snap, rule, e.cube.Verifier(q.Cond, ctr), ctr)
	snap.skyline = refCleanDominated(refDedupe(sky))
	return snap.skyline, snap
}

// refCleanDominated removes members strictly dominated by another member —
// provisional roll-up seeds can be overtaken by newly admitted tuples.
func refCleanDominated(sky []Result) []Result {
	var out []Result
	for i := range sky {
		dominated := false
		for j := range sky {
			dominated = dominated || i != j && dominates(sky[j].Coord, sky[i].Coord)
		}
		if !dominated {
			out = append(out, sky[i])
		}
	}
	return out
}

// refDedupe drops the later copy of a seed the search found again.
func refDedupe(sky []Result) []Result {
	seen := make(map[table.TID]bool, len(sky))
	var out []Result
	for _, r := range sky {
		if !seen[r.TID] {
			seen[r.TID] = true
			out = append(out, r)
		}
	}
	return out
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

// refTally sums, over every request of the matrix, the reads of the search and
// of the letter, and how often and how far the first went over the second on
// signatures.
type refTally struct {
	got, letter [3]int64
	over, worst int64
}

// withinLetter holds the search's reads to those of fig. 7.1's letter: no more
// of the partition and no more of the relation on any request. Of the
// signatures the rule can cost a partial: it asks for a node's children bits
// when the node is about to be read, the letter when the first child that is not
// dominated is popped — never, if all of them are (the "signature reads 23,
// reference only 22" case). So the search may exceed the letter by what its
// look-aheads load, a node per stage for each node it reads or skips — all of
// them nodes the letter reads — and, in a drill-down, by the nodes on the
// paths of the seeds it checks there and not against the relation: slack is
// that bound; TestSearchMatchesReference logs what it comes to over the matrix.
func (tally *refTally) withinLetter(t *testing.T, what string, got, letter *stats.Counters, slack int64) {
	t.Helper()
	for _, s := range []stats.Structure{stats.StructRTree, stats.StructTable} {
		if got.Reads(s) > letter.Reads(s) {
			t.Fatalf("%s: %s reads %d, fig. 7.1 only %d", what, s, got.Reads(s), letter.Reads(s))
		}
	}
	over := got.Reads(stats.StructSignature) - letter.Reads(stats.StructSignature)
	if over > slack {
		t.Fatalf("%s: signature reads %d, fig. 7.1 %d: more than %d over", what,
			got.Reads(stats.StructSignature), letter.Reads(stats.StructSignature), slack)
	}
	for i, s := range refStructures {
		tally.got[i] += got.Reads(s)
		tally.letter[i] += letter.Reads(s)
	}
	if over > 0 {
		tally.over++
		tally.worst = max(tally.worst, over)
	}
}

// sameResults requires the same members with the same coordinates in the same
// emission order.
func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d skyline members, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].TID != want[i].TID || fmt.Sprint(got[i].Coord) != fmt.Sprint(want[i].Coord) {
			t.Fatalf("%s: member %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// testOnly hides everything but Test: the shape of a timing or counting
// wrapper, which the search has to treat as opaque.
type testOnly struct{ signature.Tester }

// refCase is one engine under test with the conditions to put to it.
type refCase struct {
	name  string
	e     *Engine
	conds []core.Cond
}

// testerFor assembles cond's tester, behind a Test-only wrapper when asked.
func (rc refCase) testerFor(t *testing.T, cond core.Cond, wrap bool, ctr *stats.Counters) (signature.Tester, bool) {
	t.Helper()
	tester, any, err := rc.e.cube.TesterFor(cond, ctr)
	if err != nil {
		t.Fatalf("%s %v: %v", rc.name, cond, err)
	}
	if any && wrap {
		tester = testOnly{tester}
	}
	return tester, any
}

// checkAgainstReference puts every condition, as a static and as a dynamic
// skyline, through the search and through both reference loops, each with a
// tester and counters of its own: the same members in the same order, the
// rules' reads structure by structure, and within the letter's. Then it
// navigates from all three snapshots, held the same way, down chains of
// roll-ups and drill-downs.
func checkAgainstReference(t *testing.T, rc refCase, rng *rand.Rand, tally *refTally) {
	t.Helper()
	for ci, cond := range rc.conds {
		for _, q := range []Query{
			{Cond: cond, Dims: []int{0, 1, 2}},
			{Cond: cond, Dims: []int{0, 2}},
			{Cond: cond, Dims: []int{0, 1, 2}, Target: []float64{rng.Float64(), rng.Float64(), rng.Float64()}},
		} {
			for _, wrap := range []bool{false, true} {
				what := fmt.Sprintf("%s cond#%d %v dims=%v target=%v wrapped=%v", rc.name, ci, cond, q.Dims, q.Target, wrap)
				gotCtr, letterCtr, ruleCtr := stats.New(), stats.New(), stats.New()
				gotTester, any := rc.testerFor(t, cond, wrap, gotCtr)
				if !any {
					res, _, err := rc.e.Skyline(q, gotCtr)
					if err != nil || len(res) != 0 {
						t.Fatalf("%s: empty cell answered %v, %v", what, res, err)
					}
					continue
				}
				got, snap, err := rc.e.SkylineWithTester(q, gotTester, nil, gotCtr)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				tester, _ := rc.testerFor(t, cond, wrap, letterCtr)
				letter, letterSnap := refSkyline(rc.e, q, tester, false, letterCtr)
				tester, _ = rc.testerFor(t, cond, wrap, ruleCtr)
				rule, ruleSnap := refSkyline(rc.e, q, tester, true, ruleCtr)
				sameResults(t, what+" (fig. 7.1)", got, letter)
				sameResults(t, what+" (the rules)", got, rule)
				sameReads(t, what, gotCtr, ruleCtr)
				tally.withinLetter(t, what, gotCtr, letterCtr, int64(len(cond))*letterCtr.Reads(stats.StructRTree))
				if !wrap {
					// The public entry point assembles the same tester itself.
					viaCube, _, err := rc.e.Skyline(q, stats.New())
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameResults(t, what+" via Skyline", viaCube, letter)
				}
				if wrap || len(cond) == 0 {
					continue
				}

				chain := refChain{rc: rc, what: what, got: snap, letter: letterSnap, rule: ruleSnap}
				sameHeld(t, what, chain)
				chain.rollUp(t, tally, []int{cond.Dims()[rng.Intn(len(cond))]})
				// Two drill-downs in a row: the second consumes a snapshot a
				// drill-down wrote.
				drilled, added, ok := chain.drillDown(t, tally, rng)
				if !ok {
					continue
				}
				drilled.drillDown(t, tally, rng)
				// analytic-mix's shape: a roll-up from a drill-down's snapshot,
				// dropping the original predicate, and dropping the added one. And
				// on: query → drill-down → roll-up → drill-down.
				rolled := drilled.rollUp(t, tally, cond.Dims())
				drilled.rollUp(t, tally, []int{added})
				rolled.drillDown(t, tally, rng)
			}
		}
	}
}

// refChain is one navigation chain taken three ways, each from snapshots of
// its own: by the search, by fig. 7.1's letter and by the rules' letter.
type refChain struct {
	rc           refCase
	what         string
	got          *Snapshot
	letter, rule *refSnapshot
}

// rollUp takes the chain a roll-up further, dropping the predicates on drop.
func (c refChain) rollUp(t *testing.T, tally *refTally, drop []int) refChain {
	t.Helper()
	q := c.got.RollQuery(drop)
	return c.advance(t, tally, fmt.Sprintf("%s roll-up%v", c.what, drop), q,
		func(ctr *stats.Counters) ([]Result, *Snapshot, error) { return c.rc.e.RollUp(c.got, drop, ctr) },
		func(prev *refSnapshot, tester signature.Tester, rule bool, ctr *stats.Counters) ([]Result, *refSnapshot) {
			return refRollUp(c.rc.e, prev, q, tester, rule, ctr)
		},
		func(letter *stats.Counters) int64 { return int64(len(q.Cond)) * letter.Reads(stats.StructRTree) })
}

// drillDown takes the chain a drill-down further, adding a predicate on a free
// dimension. It reports the dimension, and false when none was free.
func (c refChain) drillDown(t *testing.T, tally *refTally, rng *rand.Rand) (refChain, int, bool) {
	t.Helper()
	tb := c.rc.e.cube.Table()
	var free []int
	for d := 0; d < tb.Schema().S(); d++ {
		if _, taken := c.got.query.Cond[d]; !taken {
			free = append(free, d)
		}
	}
	if len(free) == 0 {
		return c, 0, false
	}
	d := free[rng.Intn(len(free))]
	extra := core.Cond{d: int32(rng.Intn(tb.Schema().SelCard[d]))}
	q, _ := c.got.DrillQuery(extra)
	height := int64(c.rc.e.cube.Tree().Height())
	return c.advance(t, tally, fmt.Sprintf("%s drill-down%v", c.what, extra), q,
		func(ctr *stats.Counters) ([]Result, *Snapshot, error) { return c.rc.e.DrillDown(c.got, extra, ctr) },
		func(prev *refSnapshot, tester signature.Tester, rule bool, ctr *stats.Counters) ([]Result, *refSnapshot) {
			return refDrillDown(c.rc.e, prev, q, tester, rule, ctr)
		},
		func(letter *stats.Counters) int64 {
			return int64(len(q.Cond)) * (letter.Reads(stats.StructRTree) + height*int64(len(c.got.skyline)))
		}), d, true
}

// advance takes the chain one step, to q: the search by gotStep, and both
// reference loops by refStep, each with a tester and counters of its own. It
// requires the same members in the same order three ways, the rules' reads
// structure by structure, reads within the letter's by the signature slack
// the letter's counters give, and the same nodes held.
func (c refChain) advance(t *testing.T, tally *refTally, what string, q Query,
	gotStep func(*stats.Counters) ([]Result, *Snapshot, error),
	refStep func(prev *refSnapshot, tester signature.Tester, rule bool, ctr *stats.Counters) ([]Result, *refSnapshot),
	slack func(letter *stats.Counters) int64) refChain {
	t.Helper()
	gotCtr, letterCtr, ruleCtr := stats.New(), stats.New(), stats.New()
	got, next, err := gotStep(gotCtr)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	prev := c
	c = refChain{rc: c.rc, what: what, got: next, letter: refNext(prev.letter, q), rule: refNext(prev.rule, q)}
	tester, any := c.rc.testerFor(t, q.Cond, false, letterCtr)
	if !any {
		if len(got) != 0 {
			t.Fatalf("%s: empty cell answered %v", what, got)
		}
	} else {
		var letter, rule []Result
		letter, c.letter = refStep(prev.letter, tester, false, letterCtr)
		tester, _ = c.rc.testerFor(t, q.Cond, false, ruleCtr)
		rule, c.rule = refStep(prev.rule, tester, true, ruleCtr)
		sameResults(t, what+" (fig. 7.1)", got, letter)
		sameResults(t, what+" (the rules)", got, rule)
		sameReads(t, what, gotCtr, ruleCtr)
		tally.withinLetter(t, what, gotCtr, letterCtr, slack(letterCtr))
	}
	sameHeld(t, what, c)
	return c
}

// sameHeld requires the search's snapshot to hold the pages of exactly the
// nodes the rules' chain has read: an accessor started from it has retrieved
// those nodes of the tree and no other.
func sameHeld(t *testing.T, what string, c refChain) {
	t.Helper()
	rt := c.rc.e.cube.Tree()
	var acc hindex.Accessor
	acc.Reset(rt, stats.New())
	acc.Hold(c.got.held)
	var walk func(node hindex.NodeID)
	walk = func(node hindex.NodeID) {
		if held, read := acc.Retrieved(node), c.rule.held[node]; held != read {
			t.Fatalf("%s: node %d held %v, read by the chain %v", what, node, held, read)
		}
		if !rt.IsLeaf(node) {
			for _, child := range rt.Children(node) {
				walk(child.ID)
			}
		}
	}
	if root := rt.Root(); root != hindex.InvalidNode {
		walk(root)
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

// untied generates a relation of 3 selection and 3 ranking dimensions whose
// out-of-range draws are rejected, not clamped as table.Generate clamps them:
// tuples piled up on the domain's corner tie exactly on mindist, and which of
// several equal points fig. 7.1 keeps is then a matter of heap layout.
func untied(n int, dist table.Distribution, seed int64) *table.Table {
	cards := []int{12, 12, 5}
	tb := table.MustNew(table.Schema{SelNames: []string{"a", "b", "c"}, SelCard: cards, RankNames: []string{"x", "y", "z"}})
	rng := rand.New(rand.NewSource(seed))
	sel, rank := make([]int32, 3), make([]float64, 3)
	for tb.Len() < n {
		switch dist {
		case table.Correlated:
			base := rng.Float64()
			for d := range rank {
				rank[d] = base + rng.NormFloat64()*0.05
			}
		case table.AntiCorrelated:
			// Scattered around the plane Σx = 3/2.
			mean := 0.0
			for d := range rank {
				rank[d] = rng.Float64()
				mean += rank[d] / 3
			}
			shift := 0.5 + rng.NormFloat64()*0.12 - mean
			for d := range rank {
				rank[d] += shift
			}
		default:
			for d := range rank {
				rank[d] = rng.Float64()
			}
		}
		if slices.Min(rank) <= 0 || slices.Max(rank) >= 1 {
			continue
		}
		for d, c := range cards {
			sel[d] = int32(rng.Intn(c))
		}
		tb.Append(sel, rank)
	}
	return tb
}

var refDists = []table.Distribution{table.Uniform, table.Correlated, table.AntiCorrelated}

// refCases builds the engines the oracle runs over for the si-th relation —
// exact over atomic cuboids, exact with the {0,1} cuboid, exact over a grid
// partition, lossy, and exact after maintenance — with the rng the checks
// draw from.
func refCases(si int) ([]refCase, *rand.Rand) {
	dist, seed := refDists[si], int64(200+si)
	// Not the relation's seed: inserted tuples must not repeat its rows.
	rng := rand.New(rand.NewSource(seed + 1000))
	atomic := [][]int{{0}, {1}, {2}}
	withCell := append([][]int{{0, 1}}, atomic...)
	fanout := rtree.Config{Fanout: 6 + 3*si}
	// Pages this small cut every cell's signature into dozens of
	// partials, so a load made at the wrong moment shows up as a read.
	const pageSize = 96

	tb := untied(2500, dist, seed)
	conds := refConds(tb, rng)
	grid := gridtree.Build(tb, []int{0, 1, 2}, ranking.NewBox(tb.RankBounds()), gridtree.Config{Fanout: 9, BlockSize: 40})
	cases := []refCase{
		{"exact/atomic", NewEngine(sigcube.Build(tb, sigcube.Config{PageSize: pageSize, RTree: fanout, Cuboids: atomic})), conds},
		{"exact/cell", NewEngine(sigcube.Build(tb, sigcube.Config{PageSize: pageSize, RTree: fanout, Cuboids: withCell})), conds},
		{"exact/grid", NewEngine(sigcube.BuildOnTree(tb, grid, sigcube.Config{PageSize: pageSize, Cuboids: atomic})), conds},
		{"lossy", NewEngine(sigcube.Build(tb, sigcube.Config{PageSize: pageSize, RTree: fanout, LossySignatures: true})), conds},
	}

	// Maintenance on a copy of the relation: inserts split leaves and
	// the root, deletes condense, and cells the updates did not touch
	// keep signature nodes narrower than the index nodes grew to.
	grown := untied(2500, dist, seed)
	cube := sigcube.Build(grown, sigcube.Config{PageSize: pageSize, RTree: fanout, Cuboids: withCell})
	for i := 0; i < 300; i++ {
		if i%3 == 2 {
			cube.Delete(table.TID(rng.Intn(grown.Len())), stats.New())
			continue
		}
		sel := []int32{int32(rng.Intn(12)), int32(rng.Intn(12)), int32(rng.Intn(5))}
		cube.Insert(sel, []float64{rng.Float64(), rng.Float64(), rng.Float64()}, stats.New())
	}
	cases = append(cases, refCase{"maintained", NewEngine(cube), conds})
	for i := range cases {
		cases[i].name = fmt.Sprintf("%s/%s", dist, cases[i].name)
	}
	return cases, rng
}

// TestSearchMatchesReference is the read-equivalence property in its two
// tiers: over uniform, correlated and anti-correlated relations, R-tree and
// grid partitions, exact and lossy measures, every kind of condition,
// bit-vector and Test-only testers, static and dynamic skylines, before and
// after maintenance that splits nodes, the search answers exactly as the letter
// of fig. 7.1 does, in its order, with no more reads of the partition or the
// relation; and it charges exactly the block reads of the rules' letter,
// structure by structure, request by request down each navigation chain.
func TestSearchMatchesReference(t *testing.T) {
	var tally refTally
	for si := range refDists {
		cases, rng := refCases(si)
		for _, rc := range cases {
			checkAgainstReference(t, rc, rng, &tally)
		}
	}
	t.Logf("reads (R-tree, signature, table): search %v, fig. 7.1 %v; over on signatures in %d requests, by %d at most",
		tally.got, tally.letter, tally.over, tally.worst)
	// At 96-byte pages nearly every signature node is a partial of its own, so
	// this is the look-ahead's cost at its dearest: 10 371 partials against
	// 9 810 over the matrix, for 28 697 fewer pages of the partition — what
	// the look-ahead skips and what the chains held, together — and 2 320
	// fewer of the relation. A tenth over is the tripwire for a load made at the
	// wrong moment that the per-request slack is too loose to catch.
	if sig := tally.got[1]; tally.got[0] > tally.letter[0] || tally.got[2] > tally.letter[2] || sig > tally.letter[1]+tally.letter[1]/10 {
		t.Fatalf("in total the search read %v, fig. 7.1 %v", tally.got, tally.letter)
	}
}
