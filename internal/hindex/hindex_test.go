package hindex

import "testing"

func TestSIDDistinctness(t *testing.T) {
	m := 16
	seen := map[uint64][]int{}
	var paths [][]int
	for a := 1; a <= m; a++ {
		paths = append(paths, []int{a})
		for b := 1; b <= m; b++ {
			paths = append(paths, []int{a, b})
		}
	}
	paths = append(paths, []int{})
	for _, p := range paths {
		sid := SID(p, m)
		if prev, ok := seen[sid]; ok {
			t.Fatalf("SID collision: %v and %v -> %d", prev, p, sid)
		}
		seen[sid] = append([]int(nil), p...)
	}
}

func TestSIDRootIsZero(t *testing.T) {
	if SID(nil, 204) != 0 {
		t.Fatalf("root SID = %d", SID(nil, 204))
	}
}

func TestSIDThesisFormula(t *testing.T) {
	// Thesis example (§4.2.1): M = 2, path of node N3 is ⟨1,1⟩, SID = 4.
	if got := SID([]int{1, 1}, 2); got != 4 {
		t.Fatalf("SID(⟨1,1⟩, M=2) = %d, want 4", got)
	}
}
