package skyline

import (
	"fmt"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/stats"
)

// TestTestOnlyTesterChargesStagedReads pins the equality the instrumented
// runs depend on (fig. 7.12's timing wrapper, a counting or filtering tester
// handed to SkylineWithTester): whatever the cube's own tester charges through
// Skyline, RollUp and DrillDown, the same tester with its bit vectors hidden
// charges too — per structure, request by request, down a chain of two
// drill-downs — and answers the same.
func TestTestOnlyTesterChargesStagedReads(t *testing.T) {
	for si := range refDists {
		cases, rng := refCases(si)
		for _, rc := range cases {
			for ci, cond := range rc.conds {
				if len(cond) == 0 {
					continue
				}
				q := Query{Cond: cond, Dims: []int{0, 1, 2}}
				what := fmt.Sprintf("%s cond#%d %v", rc.name, ci, cond)
				stagedCtr := stats.New()
				staged, snap, err := rc.e.Skyline(q, stagedCtr)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				hidden := rc.hidden(t, what, q, nil, nil, stagedCtr, staged)
				if hidden == nil {
					continue
				}

				drop := cond.Dims()[rng.Intn(len(cond))]
				stagedCtr = stats.New()
				staged, _, err = rc.e.RollUp(snap, []int{drop}, stagedCtr)
				if err != nil {
					t.Fatalf("%s roll-up: %v", what, err)
				}
				rc.hidden(t, what+" roll-up", snap.RollQuery([]int{drop}), (*search).rollUp, hidden, stagedCtr, staged)

				for hop, d := range []int{0, 1, 2} {
					if _, taken := snap.query.Cond[d]; taken {
						continue
					}
					extra := core.Cond{d: int32(rng.Intn(rc.e.cube.Table().Schema().SelCard[d]))}
					hopWhat := fmt.Sprintf("%s drill-down#%d %v", what, hop, extra)
					dq, _ := snap.DrillQuery(extra)
					stagedCtr = stats.New()
					staged, snap, err = rc.e.DrillDown(snap, extra, stagedCtr)
					if err != nil {
						t.Fatalf("%s: %v", hopWhat, err)
					}
					if hidden = rc.hidden(t, hopWhat, dq, (*search).drillDown, hidden, stagedCtr, staged); hidden == nil {
						break
					}
				}
			}
		}
	}
}

// hidden answers q with its tester behind testOnly — from scratch, or by step
// from prev, holding what prev's chain has read — and holds the answer and the
// reads to those of the staged run.
// It returns the snapshot to navigate on from, nil when q's cell is empty.
func (rc refCase) hidden(t *testing.T, what string, q Query, step func(*search, *Snapshot), prev *Snapshot, stagedCtr *stats.Counters, staged []Result) *Snapshot {
	t.Helper()
	ctr := stats.New()
	tester, any := rc.testerFor(t, q.Cond, true, ctr)
	if !any {
		if len(staged) != 0 {
			t.Fatalf("%s: empty cell answered %v", what, staged)
		}
		return nil
	}
	snap := rc.e.snapshot(q)
	if step != nil {
		snap = prev.next(q)
	}
	s := rc.e.newSearch(q, tester, nil, snap, ctr)
	defer s.Release()
	if step == nil {
		s.EnterRoot()
		s.run()
	} else {
		step(s, prev)
	}
	sameResults(t, what+" Test-only", snap.skyline, staged)
	sameReads(t, what+" Test-only", ctr, stagedCtr)
	return snap
}
