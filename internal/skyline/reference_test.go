package skyline

import (
	"fmt"
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

// The reference implementation: fig. 7.1 to the letter. Every child of an
// expanded node is pushed with its path and its corner, and is tested — for
// domination first, then against the signature — when it is popped. This was
// the production loop until the pending-entry search took over; it stays here
// as the oracle the search's answers and block reads are held to.

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
type refSnapshot struct {
	query   Query
	skyline []Result
	pruned  []refEntry
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
		if en.isTuple {
			if dominates(sky[i].Coord, en.corner) {
				return true
			}
		} else if weaklyDominates(sky[i].Coord, en.corner) {
			return true
		}
	}
	return false
}

func refRoot(q Query, rt hindex.Index) *heap.Heap[refEntry] {
	h := heap.New[refEntry](lessRefEntry)
	corner := refLowerCorner(q, rt.NodeBox(rt.Root()))
	h.Push(refEntry{mindist: sum(corner), node: rt.Root(), corner: corner})
	return h
}

// refRun is the old BBS loop.
func refRun(e *Engine, q Query, tester signature.Tester, h *heap.Heap[refEntry], sky []Result, snap *refSnapshot, ctr *stats.Counters) []Result {
	rt := e.cube.Tree()
	acc := hindex.NewAccessor(rt, ctr)
	verify := e.cube.Verifier(q.Cond, ctr)
	for h.Len() > 0 {
		ctr.ObserveHeap(h.Len())
		en := h.Pop()
		ctr.StatesExamined++
		if refPrunedBy(sky, en) {
			ctr.DominationPruned++
			snap.pruned = append(snap.pruned, en)
			continue
		}
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
		if rt.IsLeaf(en.node) {
			for slot, le := range acc.LeafEntries(en.node) {
				pt := refPoint(q, le.Point)
				h.Push(refEntry{mindist: sum(pt), isTuple: true, tid: le.TID, path: refChildPath(en.path, slot), corner: pt})
				ctr.StatesGenerated++
			}
			continue
		}
		for slot, ch := range acc.Children(en.node) {
			corner := refLowerCorner(q, ch.Box)
			h.Push(refEntry{mindist: sum(corner), node: ch.ID, path: refChildPath(en.path, slot), corner: corner})
			ctr.StatesGenerated++
		}
	}
	return sky
}

func refSkyline(e *Engine, q Query, tester signature.Tester, ctr *stats.Counters) ([]Result, *refSnapshot) {
	snap := &refSnapshot{query: q}
	snap.skyline = refRun(e, q, tester, refRoot(q, e.cube.Tree()), nil, snap, ctr)
	return snap.skyline, snap
}

func refDrillDown(e *Engine, prev *refSnapshot, q Query, extra core.Cond, tester signature.Tester, ctr *stats.Counters) ([]Result, *refSnapshot) {
	snap := &refSnapshot{query: q}
	t := e.cube.Table()
	var survivors []Result
	for _, r := range prev.skyline {
		ctr.Read(stats.StructTable, 1)
		if t.Matches(r.TID, extra) {
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
	snap.skyline = refRun(e, q, tester, h, survivors, snap, ctr)
	return snap.skyline, snap
}

func refRollUp(e *Engine, prev *refSnapshot, q Query, tester signature.Tester, ctr *stats.Counters) ([]Result, *refSnapshot) {
	snap := &refSnapshot{query: q}
	seeds := append([]Result(nil), prev.skyline...)
	sky := refRun(e, q, tester, refRoot(q, e.cube.Tree()), seeds, snap, ctr)
	snap.skyline = cleanDominated(dedupe(sky))
	return snap.skyline, snap
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

func noMoreReads(t *testing.T, what string, got, want *stats.Counters) {
	t.Helper()
	for _, s := range refStructures {
		if got.Reads(s) > want.Reads(s) {
			t.Fatalf("%s: %s reads %d, reference only %d", what, s, got.Reads(s), want.Reads(s))
		}
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
// skyline, through the search and through the reference loop, each with a
// tester and counters of its own: the same members in the same order and the
// same reads per structure. Then it navigates from both snapshots: a roll-up
// (same answer, same reads) and a drill-down (same answer, no more reads — the
// search's snapshot leaves out children it knows fail the boolean test).
func checkAgainstReference(t *testing.T, rc refCase, rng *rand.Rand) {
	t.Helper()
	tb := rc.e.cube.Table()
	for ci, cond := range rc.conds {
		for _, q := range []Query{
			{Cond: cond, Dims: []int{0, 1, 2}},
			{Cond: cond, Dims: []int{0, 2}},
			{Cond: cond, Dims: []int{0, 1, 2}, Target: []float64{rng.Float64(), rng.Float64(), rng.Float64()}},
		} {
			for _, wrap := range []bool{false, true} {
				what := fmt.Sprintf("%s cond#%d %v dims=%v target=%v wrapped=%v", rc.name, ci, cond, q.Dims, q.Target, wrap)
				gotCtr, wantCtr := stats.New(), stats.New()
				gotTester, any := rc.testerFor(t, cond, wrap, gotCtr)
				wantTester, _ := rc.testerFor(t, cond, wrap, wantCtr)
				if !any {
					res, _, err := rc.e.Skyline(q, gotCtr)
					if err != nil || len(res) != 0 {
						t.Fatalf("%s: empty cell answered %v, %v", what, res, err)
					}
					continue
				}
				got, snap, err := rc.e.SkylineWithTester(q, gotTester, gotCtr)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want, refSnap := refSkyline(rc.e, q, wantTester, wantCtr)
				sameResults(t, what, got, want)
				sameReads(t, what, gotCtr, wantCtr)
				if !wrap {
					// The public entry point assembles the same tester itself.
					viaCube, _, err := rc.e.Skyline(q, stats.New())
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameResults(t, what+" via Skyline", viaCube, want)
				}
				if wrap || len(cond) == 0 {
					continue
				}

				// Roll-up: drop one predicate.
				drop := cond.Dims()[rng.Intn(len(cond))]
				gotCtr, wantCtr = stats.New(), stats.New()
				rolled, _, err := rc.e.RollUp(snap, []int{drop}, gotCtr)
				if err != nil {
					t.Fatalf("%s roll-up: %v", what, err)
				}
				rq := snap.RollQuery([]int{drop})
				rollTester, _ := rc.testerFor(t, rq.Cond, false, wantCtr)
				wantRolled, _ := refRollUp(rc.e, refSnap, rq, rollTester, wantCtr)
				sameResults(t, what+" roll-up", rolled, wantRolled)
				sameReads(t, what+" roll-up", gotCtr, wantCtr)

				// Drill-down: add a predicate on a free dimension, twice, so the
				// second hop consumes a snapshot a drill-down wrote.
				prev, refPrev := snap, refSnap
				for hop := 0; hop < 2; hop++ {
					var free []int
					for d := 0; d < tb.Schema().S(); d++ {
						if _, taken := prev.query.Cond[d]; !taken {
							free = append(free, d)
						}
					}
					if len(free) == 0 {
						break
					}
					d := free[rng.Intn(len(free))]
					extra := core.Cond{d: int32(rng.Intn(tb.Schema().SelCard[d]))}
					hopWhat := fmt.Sprintf("%s drill-down#%d %v", what, hop, extra)
					gotCtr, wantCtr = stats.New(), stats.New()
					drilled, next, err := rc.e.DrillDown(prev, extra, gotCtr)
					if err != nil {
						t.Fatalf("%s: %v", hopWhat, err)
					}
					dq, _ := prev.DrillQuery(extra)
					drillTester, any := rc.testerFor(t, dq.Cond, false, wantCtr)
					if !any {
						if len(drilled) != 0 {
							t.Fatalf("%s: empty cell answered %v", hopWhat, drilled)
						}
						break
					}
					wantDrilled, refNext := refDrillDown(rc.e, refPrev, dq, extra, drillTester, wantCtr)
					sameResults(t, hopWhat, drilled, wantDrilled)
					noMoreReads(t, hopWhat, gotCtr, wantCtr)
					prev, refPrev = next, refNext
				}
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

// TestSearchMatchesReference is the read-equivalence property: over uniform,
// correlated and anti-correlated relations, R-tree and grid partitions, exact
// and lossy measures, every kind of condition, bit-vector and Test-only
// testers, static and dynamic skylines, before and after maintenance that
// splits nodes, the search answers exactly as the reference loop does and
// charges exactly its block reads, structure by structure.
func TestSearchMatchesReference(t *testing.T) {
	for si, dist := range []table.Distribution{table.Uniform, table.Correlated, table.AntiCorrelated} {
		seed := int64(200 + si)
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
		for _, rc := range []refCase{
			{"exact/atomic", NewEngine(sigcube.Build(tb, sigcube.Config{PageSize: pageSize, RTree: fanout, Cuboids: atomic})), conds},
			{"exact/cell", NewEngine(sigcube.Build(tb, sigcube.Config{PageSize: pageSize, RTree: fanout, Cuboids: withCell})), conds},
			{"exact/grid", NewEngine(sigcube.BuildOnTree(tb, grid, sigcube.Config{PageSize: pageSize, Cuboids: atomic})), conds},
			{"lossy", NewEngine(sigcube.Build(tb, sigcube.Config{PageSize: pageSize, RTree: fanout, LossySignatures: true})), conds},
		} {
			rc.name = fmt.Sprintf("%s/%s", dist, rc.name)
			checkAgainstReference(t, rc, rng)
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
		checkAgainstReference(t, refCase{fmt.Sprintf("%s/maintained", dist), NewEngine(cube), conds}, rng)
	}
}
