package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/table"
)

// TestQuickMixedOperations drives random interleaved insert/delete
// sequences and checks the full invariant set afterwards: structure, tuple
// coverage, and box containment.
func TestQuickMixedOperations(t *testing.T) {
	prop := func(seed int64, fanoutRaw uint8, opsRaw uint16) bool {
		fanout := 4 + int(fanoutRaw)%12
		ops := 50 + int(opsRaw)%400
		rng := rand.New(rand.NewSource(seed))

		tb := table.MustNew(table.Schema{
			SelNames: []string{"a"}, SelCard: []int{2},
			RankNames: []string{"x", "y"},
		})
		tr := New([]int{0, 1}, 2, ranking.UnitBox(2), Config{Fanout: fanout})
		alive := map[table.TID]bool{}

		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.7 || len(alive) == 0 {
				tid := tb.Append([]int32{0}, []float64{rng.Float64(), rng.Float64()})
				tr.Insert(tid, tb.RankRow(tid, nil))
				alive[tid] = true
			} else {
				// Delete a random live tuple.
				var victim table.TID
				n := rng.Intn(len(alive))
				for tid := range alive {
					if n == 0 {
						victim = tid
						break
					}
					n--
				}
				if _, ok := tr.Delete(victim); !ok {
					return false
				}
				delete(alive, victim)
			}
		}

		// Invariants: every live tuple reachable exactly once, inside boxes.
		seen := map[table.TID]bool{}
		ok := true
		var walk func(id hindex.NodeID)
		walk = func(id hindex.NodeID) {
			if tr.IsLeaf(id) {
				for slot := 0; slot < tr.NumChildren(id); slot++ {
					tid, e := tr.TupleAt(id, slot), tr.entry(id, slot)
					if seen[tid] || !alive[tid] {
						ok = false
						return
					}
					seen[tid] = true
					for d := 0; d < 2; d++ {
						if v := tb.Rank(tid, d); v < e.lo[d]-1e-12 || v > e.hi[d]+1e-12 {
							ok = false
							return
						}
					}
				}
				return
			}
			for pos := 0; pos < tr.NumChildren(id); pos++ {
				kid := tr.ChildAt(id, pos)
				if parent, at := tr.Parent(kid); parent != id || at != pos {
					ok = false
					return
				}
				cm, e := newRect(2), tr.entry(id, pos)
				tr.MBR(kid, cm.lo, cm.hi)
				for d := 0; d < 2; d++ {
					if cm.lo[d] < e.lo[d]-1e-12 || cm.hi[d] > e.hi[d]+1e-12 {
						ok = false
						return
					}
				}
				walk(kid)
			}
		}
		if tr.Root() != hindex.InvalidNode {
			walk(tr.Root())
		}
		return ok && len(seen) == len(alive)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
