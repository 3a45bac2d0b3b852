package core

import (
	"sort"
	"testing"
	"testing/quick"

	"rankcube/internal/table"
)

func TestWorseResultOrdering(t *testing.T) {
	a := Result{TID: 1, Score: 2}
	b := Result{TID: 2, Score: 1}
	if !WorseResult(a, b) || WorseResult(b, a) {
		t.Fatal("score ordering wrong")
	}
	// Ties break on tid.
	c := Result{TID: 3, Score: 1}
	if !WorseResult(c, b) || WorseResult(b, c) {
		t.Fatal("tie-break ordering wrong")
	}
	if WorseResult(b, b) {
		t.Fatal("element worse than itself")
	}
}

func TestWorseResultTotalOrderProperty(t *testing.T) {
	// Antisymmetry: for distinct results exactly one of worse(a,b),
	// worse(b,a) holds.
	f := func(t1, t2 int32, s1, s2 uint8) bool {
		a := Result{TID: table.TID(t1), Score: float64(s1)}
		b := Result{TID: table.TID(t2), Score: float64(s2)}
		if a == b {
			return !WorseResult(a, b) && !WorseResult(b, a)
		}
		return WorseResult(a, b) != WorseResult(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntsKey(t *testing.T) {
	a := IntsKey([]int{1, 2, 3})
	if a != IntsKey([]int{1, 2, 3}) {
		t.Fatal("IntsKey not deterministic")
	}
	if a == IntsKey([]int{1, 2}) || a == IntsKey([]int{3, 2, 1}) {
		t.Fatal("IntsKey collision")
	}
	if IntsKey(nil) != "" {
		t.Fatal("empty key not empty")
	}
	// Values above 255 take both bytes: ⟨256⟩ is {1,0}, ⟨1,0⟩ is {0,1,0,0}.
	if IntsKey([]int{256}) == IntsKey([]int{1, 0}) || IntsKey([]int{257, 1}) == IntsKey([]int{1, 257}) {
		t.Fatal("16-bit encoding collision")
	}
}

func TestCondDims(t *testing.T) {
	c := Cond{5: 1, 0: 2, 3: 3}
	got := c.Dims()
	if !sort.IntsAreSorted(got) || len(got) != 3 {
		t.Fatalf("Dims = %v", got)
	}
	if got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Dims = %v", got)
	}
	if len((Cond{}).Dims()) != 0 {
		t.Fatal("empty cond has dims")
	}
}
