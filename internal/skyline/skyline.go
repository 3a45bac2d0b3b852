// Package skyline implements chapter 7 of the thesis: skyline and dynamic
// skyline queries with multi-dimensional boolean predicates, plus
// candidate-heap reuse for drill-down and roll-up queries (§7.2.4).
//
// The search is the branch-and-bound framework of ch. 4 applied to preference
// queries (§5.5.3, §1.3.4): sigcube.BestFirst ranked by mindist, with the
// domination test of fig. 7.1 as its filter, charged by that search's rule. A
// Snapshot records what navigation from a query needs: the skyline with each
// member's SID, the SIDs of the candidates the filter pruned, and the
// partition pages the navigation chain has read.
//
// The thesis body for chapter 7 is summarized rather than fully reproduced
// in our source text; the algorithms here follow the chapter's section
// structure (domination pruning fig. 7.1, heap re-construction fig. 7.2).
package skyline

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Query is a skyline query with boolean predicates: minimize all Dims
// simultaneously among tuples matching Cond. A non-nil Target asks for the
// dynamic skyline in the transformed space t_d = |x_d − Target[d]| (§7.2.3).
type Query struct {
	Cond   core.Cond
	Dims   []int
	Target []float64
}

// appendCorner appends to dst the per-dimension minima in preference space of
// the box lo..hi, whose coordinate of Dims[i] is at position at[i] — the point
// BBS sorts and prunes by. A tuple's point, as both lo and hi, maps to its
// preference-space coordinates: identity for static skylines, |x−target| for
// dynamic ones.
func (q Query) appendCorner(dst, lo, hi []float64, at []int) []float64 {
	for i, a := range at {
		if q.Target == nil {
			dst = append(dst, lo[a])
			continue
		}
		t := q.Target[i]
		switch {
		case t < lo[a]:
			dst = append(dst, lo[a]-t)
		case t > hi[a]:
			dst = append(dst, t-hi[a])
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// dominates reports whether a strictly dominates b (≤ everywhere, < once).
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Result is one skyline member.
type Result struct {
	TID   table.TID
	Coord []float64 // preference-space coordinates
}

// Engine runs skyline queries over a signature ranking-cube.
type Engine struct {
	cube *sigcube.Cube
	// searches recycles finished searches — heap, accessor, corners and
	// pruned SIDs — so that a query does not grow them from nothing.
	searches sync.Pool
}

// NewEngine wraps a built cube.
func NewEngine(cube *sigcube.Cube) *Engine { return &Engine{cube: cube} }

// Cube exposes the engine's underlying signature cube so the API boundary
// can route skyline queries through the cube's serving control (shared
// lock + admission gate).
func (e *Engine) Cube() *sigcube.Cube { return e.cube }

// Snapshot preserves a finished query's skyline and the SIDs of the candidates
// it pruned by domination so OLAP navigation (drill-down/roll-up) can
// re-construct its candidate heap instead of restarting (fig. 7.2). It also holds the partition
// pages its navigation chain — this query and the steps that led to it — has
// retrieved: a step from it charges only the nodes none of them read. Both
// are valid only on the cube the snapshot was taken on, at its write epoch.
type Snapshot struct {
	query   Query
	skyline []Result
	// sids holds the SID each member was emitted under, in step with skyline:
	// the path a drill-down puts to the tightened predicate's signature.
	sids []uint64
	// pruned holds the SIDs of the nodes and tuples the search discarded
	// because a skyline member dominated them, in pruning order: under a
	// tightened predicate their dominators may vanish. Each passed the boolean
	// test of this query or was never put to it; a child whose bit the search
	// had seen clear is not here, since no tighter predicate can revive it. A
	// SID names its entry's slot in the partition, which cannot change while
	// the snapshot is valid, so a drill-down reads the entry's corner and
	// mindist back from there (sigcube.BestFirst.Resolve): 8 bytes an entry,
	// exactly sized.
	pruned []uint64
	// held has a bit per page of the partition that the chain has retrieved:
	// every child of such a node has been classified, so a later step walks
	// into it again without its page. Four kilobytes a bit, modelled, pinned
	// for as long as the snapshot is navigated from.
	held []uint64
	// cube is the cube the query ran on, and epoch its write count then. SIDs,
	// pruned nodes and held pages describe that partition as it stood then:
	// navigation on another cube is refused, and after a write it restarts
	// from scratch.
	cube  *sigcube.Cube
	epoch uint64
	// degraded marks snapshots produced by the fallback scan: they carry
	// no pruned-candidate basis, so navigation restarts from scratch
	// instead of re-constructing the heap.
	degraded bool
}

// snapshot starts the snapshot of a query answered from scratch.
func (e *Engine) snapshot(q Query) *Snapshot {
	return &Snapshot{query: q, cube: e.cube, epoch: e.cube.Epoch()}
}

// next starts the snapshot of q, a step away from s's query: the step holds
// what s's chain has retrieved and adds what it reads.
func (s *Snapshot) next(q Query) *Snapshot {
	return &Snapshot{query: q, cube: s.cube, epoch: s.epoch, held: s.held}
}

// dominated applies the domination test against the skyline: some member
// strictly dominates the point of a tuple or the best corner of a node, and
// then every tuple in the node. A member that only equals a corner prunes
// nothing: the node may hold tuples equal to it, which are members too.
func (s *Snapshot) dominated(corner []float64) bool {
	for _, m := range s.skyline {
		if dominates(m.Coord, corner) {
			return true
		}
	}
	return false
}

// admit takes a member into the skyline.
func (s *Snapshot) admit(r Result, sid uint64) {
	s.skyline = append(s.skyline, r)
	s.sids = append(s.sids, sid)
}

// own moves the coordinates of the members from the from-th on, each d wide,
// into one slab of the snapshot's own: a run admits members whose coordinates
// are its search's, which goes back to the pool when the run ends.
func (s *Snapshot) own(from, d int) {
	members := s.skyline[from:]
	slab := make([]float64, len(members)*d)
	for i := range members {
		c := slab[i*d : (i+1)*d : (i+1)*d]
		copy(c, members[i].Coord)
		members[i].Coord = c
	}
}

// Degraded reports whether this snapshot came from the fallback scan
// (drill-down/roll-up reuse is unavailable; navigation re-queries).
func (s *Snapshot) Degraded() bool { return s.degraded }

// DrillQuery returns the snapshot's query tightened with extra predicates —
// the query a drill-down answers — rejecting contradictions with existing
// predicates.
func (s *Snapshot) DrillQuery(extra core.Cond) (Query, error) {
	q := s.query
	newCond := core.Cond{}
	for d, v := range q.Cond {
		newCond[d] = v
	}
	for d, v := range extra {
		if old, ok := newCond[d]; ok && old != v {
			return Query{}, fmt.Errorf("skyline: drill-down contradicts existing predicate on dimension %d: %w", d, errs.ErrInvalidArgument)
		}
		newCond[d] = v
	}
	q.Cond = newCond
	return q, nil
}

// RollQuery returns the snapshot's query with the predicates on removeDims
// removed — the query a roll-up answers.
func (s *Snapshot) RollQuery(removeDims []int) Query {
	q := s.query
	newCond := core.Cond{}
	for d, v := range q.Cond {
		newCond[d] = v
	}
	for _, d := range removeDims {
		delete(newCond, d)
	}
	q.Cond = newCond
	return q
}

// SkylineWithTester answers q using an explicit boolean-pruning tester
// instead of the cube's signatures — the hook the evaluation harness uses
// for instrumented testers and for the no-signature ("Ranking") baseline
// series: no tester at all, and a verify that pays a random access for each
// tuple about to enter the skyline. A nil verify is the cube's own.
func (e *Engine) SkylineWithTester(q Query, tester signature.Tester, verify func(table.TID) bool, ctr *stats.Counters) ([]Result, *Snapshot, error) {
	if err := e.validate(q); err != nil {
		return nil, nil, err
	}
	snap := e.snapshot(q)
	s := e.newSearch(q, tester, verify, snap, ctr)
	defer s.Release()
	s.EnterRoot()
	s.run()
	return snap.skyline, snap, nil
}

// Skyline answers q from scratch.
func (e *Engine) Skyline(q Query, ctr *stats.Counters) ([]Result, *Snapshot, error) {
	if err := e.validate(q); err != nil {
		return nil, nil, err
	}
	tester, any, err := e.testerFor(q, ctr)
	if err != nil {
		return nil, nil, err
	}
	if !any {
		return nil, e.snapshot(q), nil
	}
	return e.SkylineWithTester(q, tester, nil, ctr)
}

// testerFor assembles the cube's tester for q's predicate under a span of its
// own; any is false when the predicate's cell is empty. The search that starts
// on it hands it back when it is released.
func (e *Engine) testerFor(q Query, ctr *stats.Counters) (tester signature.Tester, any bool, err error) {
	defer ctr.StartSpan("tester")()
	return e.cube.TesterFor(q.Cond, ctr)
}

// DrillDown answers the previous query tightened with extra predicates by
// re-constructing the candidate heap from the snapshot (fig. 7.2): the new
// answer set is a subset of the old universe, so the old skyline plus the
// domination-pruned entries are a complete candidate basis.
func (e *Engine) DrillDown(prev *Snapshot, extra core.Cond, ctr *stats.Counters) ([]Result, *Snapshot, error) {
	q, err := prev.DrillQuery(extra)
	if err != nil {
		return nil, nil, err
	}
	return e.navigate(prev, q, (*search).drillDown, ctr)
}

// RollUp answers the previous query with the predicates on the given
// dimensions removed. The universe grows, so the search walks again from the
// root, but it charges no page the navigation chain has already retrieved, and
// the previous skyline, which satisfies the relaxed predicate, seeds the
// skyline list, making domination pruning effective from the start.
func (e *Engine) RollUp(prev *Snapshot, removeDims []int, ctr *stats.Counters) ([]Result, *Snapshot, error) {
	return e.navigate(prev, prev.RollQuery(removeDims), (*search).rollUp, ctr)
}

// navigate answers q, a step away from prev's query, by taking that step from
// prev. Not from another cube's snapshot, which describes another partition:
// that is refused. Not from a degraded snapshot, which has no candidate basis,
// nor from a stale one, whose SIDs and nodes describe a partition that has
// moved and whose members may have been deleted or overtaken: those restart
// from scratch, with nothing held.
func (e *Engine) navigate(prev *Snapshot, q Query, step func(*search, *Snapshot), ctr *stats.Counters) ([]Result, *Snapshot, error) {
	if prev.cube != e.cube {
		return nil, nil, fmt.Errorf("skyline: snapshot taken on another cube: %w", errs.ErrInvalidArgument)
	}
	if prev.degraded || prev.epoch != e.cube.Epoch() {
		return e.Skyline(q, ctr)
	}
	tester, any, err := e.testerFor(q, ctr)
	if err != nil {
		return nil, nil, err
	}
	snap := prev.next(q)
	if any {
		s := e.newSearch(q, tester, nil, snap, ctr)
		defer s.Release()
		step(s, prev)
	}
	return snap.skyline, snap, nil
}

// drillDown re-constructs the candidate heap from prev (fig. 7.2) and runs.
func (s *search) drillDown(prev *Snapshot) {
	endReheap := s.ctr.StartSpan("reheap")
	// Previous skyline members matching the tightened predicate remain skyline
	// (non-domination over a subset is preserved), so they seed the result
	// directly. Whether one matches is read off the signature, under the SID it
	// was emitted at: exact at the tuple level, and the partials it loads are
	// those the search is about to ask for. A lossy cube has no such bit and
	// pays one random access to the relation for each.
	for i, r := range prev.skyline {
		sid := prev.sids[i]
		if s.verify == nil && s.Test(sid) || s.verify != nil && s.verify(r.TID) {
			s.snap.admit(r, sid)
		}
	}
	// Domination-pruned candidates re-enter only when every dominator they had
	// may have vanished: those still dominated by a survivor stay pruned (and
	// stay recorded for further drill-downs). The others are put to the
	// tightened predicate's signature when they are popped. Each is read back
	// from the partition by its SID, in the order it was pruned.
	for _, sid := range prev.pruned {
		if st := s.Resolve(sid); s.Pass(st) {
			s.Enter(st.Score, sid, st.Ref, st.Tuple, st.C)
		} else {
			s.corners = s.corners[:st.C]
		}
	}
	endReheap()
	s.run()
}

// rollUp searches from the root with prev's skyline for seeds: its members all
// satisfy the relaxed predicate, so they are legitimate pruners from the first
// pop — the payoff of heap/skyline reuse. They may themselves be dominated by
// newly admitted tuples, and the search finds each again, so the result is
// cleaned afterwards.
func (s *search) rollUp(prev *Snapshot) {
	s.snap.skyline = append(s.snap.skyline, prev.skyline...)
	s.snap.sids = append(s.snap.sids, prev.sids...)
	s.EnterRoot()
	s.run()
	s.snap.clean()
}

// clean removes from a roll-up's skyline the seeds the search found again and
// the members another member strictly dominates — provisional seeds can be
// overtaken by newly admitted tuples — in place, sids in step. Behind the
// members kept so far the slice still holds members as they were, and what
// made one of those go makes its copy and what it dominates go too.
func (s *Snapshot) clean() {
	sky, n := s.skyline, 0
	for i, r := range sky {
		keep := true
		for j := range sky {
			if j < i && sky[j].TID == r.TID || dominates(sky[j].Coord, r.Coord) {
				keep = false
				break
			}
		}
		if keep {
			sky[n], s.sids[n] = r, s.sids[i]
			n++
		}
	}
	s.skyline, s.sids = sky[:n], s.sids[:n]
}

// validate refuses a query with no preference dimension, with one the cube's
// partition does not cover — one out of the schema's range included — and
// with a target that does not give each a finite value.
func (e *Engine) validate(q Query) error {
	if len(q.Dims) == 0 {
		return fmt.Errorf("skyline: no preference dimensions: %w", errs.ErrInvalidArgument)
	}
	for _, d := range q.Dims {
		if !slices.Contains(e.cube.Tree().Dims(), d) {
			return fmt.Errorf("skyline: preference dimension %d not covered by the partition: %w", d, errs.ErrInvalidArgument)
		}
	}
	if q.Target != nil && len(q.Target) != len(q.Dims) {
		return fmt.Errorf("skyline: target arity %d != dims %d: %w", len(q.Target), len(q.Dims), errs.ErrInvalidArgument)
	}
	for _, v := range q.Target {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("skyline: target %v is not finite: %w", q.Target, errs.ErrInvalidArgument)
		}
	}
	return nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
