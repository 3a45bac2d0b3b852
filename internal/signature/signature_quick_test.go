package signature

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// TestQuickMembershipEquivalence: for random membership sets, the generated
// signature (and its encode/decode image under random page sizes) must
// answer Test exactly like set membership for every tuple.
func TestQuickMembershipEquivalence(t *testing.T) {
	prop := func(seed int64, densityRaw, pageRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 300 + int(densityRaw)*4
		tb := table.Generate(table.GenSpec{T: n, S: 1, R: 2, Card: 2, Seed: seed})
		rt := rtree.Bulk(tb, []int{0, 1}, ranking.UnitBox(2), rtree.Config{Fanout: 8})

		density := 0.05 + float64(densityRaw%100)/150
		members := map[table.TID]bool{}
		var paths [][]int
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				tid := table.TID(i)
				members[tid] = true
				paths = append(paths, rt.TuplePath(tid))
			}
		}
		sig := Generate(rt, paths)
		if len(paths) == 0 {
			return sig == nil
		}

		pageSize := 64 << (pageRaw % 6) // 64B … 2KB forces varied decomposition
		store := pager.NewStore(stats.StructSignature, pageSize)
		enc := NewEncoder(rt.MaxFanout(), rt.Height(), store)
		stored := enc.Encode(sig)
		view := NewView(stored, enc.Codec(), store, stats.New())

		for i := 0; i < n; i++ {
			tid := table.TID(i)
			p := rt.TuplePath(tid)
			if sig.Test(p) != members[tid] {
				return false
			}
			if view.Test(p) != members[tid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionIntersectAlgebra: the online union and intersection, Or and
// And, must behave as set algebra at the tuple level for random member sets.
func TestQuickUnionIntersectAlgebra(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 400
		tb := table.Generate(table.GenSpec{T: n, S: 1, R: 2, Card: 2, Seed: seed})
		rt := rtree.Bulk(tb, []int{0, 1}, ranking.UnitBox(2), rtree.Config{Fanout: 8})

		setA := map[table.TID]bool{}
		setB := map[table.TID]bool{}
		var pathsA, pathsB [][]int
		for i := 0; i < n; i++ {
			tid := table.TID(i)
			if rng.Float64() < 0.3 {
				setA[tid] = true
				pathsA = append(pathsA, rt.TuplePath(tid))
			}
			if rng.Float64() < 0.3 {
				setB[tid] = true
				pathsB = append(pathsB, rt.TuplePath(tid))
			}
		}
		a := Generate(rt, pathsA)
		b := Generate(rt, pathsB)
		u, x := Or{a, b}, And{a, b}
		for i := 0; i < n; i++ {
			tid := table.TID(i)
			p := rt.TuplePath(tid)
			if u.Test(p) != (setA[tid] || setB[tid]) || x.Test(p) != (setA[tid] && setB[tid]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
