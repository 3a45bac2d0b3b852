package core

import (
	"sort"
	"testing"
	"testing/quick"

	"rankcube/internal/pager"
	"rankcube/internal/stats"
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

// TestHeapFileChargeRule holds the heap file to its page model and its one
// charge rule: whole rows to a page, a page count that follows the relation
// as it grows, a sequential pass charging every page once, and a random
// access charging a tuple's page the first time its query touches it.
func TestHeapFileChargeRule(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 1000, S: 2, R: 2, Card: 3, Seed: 7})
	h := NewHeapFile(tb, 0)
	rows := pager.PageSize / tb.RowBytes()
	pages := func() int { return (tb.Len() + rows - 1) / rows }
	if h.NumPages() != pages() || h.PageOf(table.TID(rows-1)) != 0 || h.PageOf(table.TID(rows)) != 1 {
		t.Fatalf("%d pages, tid %d on page %d: want %d pages of %d rows", h.NumPages(), rows, h.PageOf(table.TID(rows)), pages(), rows)
	}

	cond := Cond{0: 1}
	for query := 0; query < 2; query++ {
		ctr := stats.New()
		verify := h.Verifier(cond, ctr)
		touched := map[int]bool{}
		for tid := table.TID(0); int(tid) < tb.Len(); tid += 5 {
			if verify(tid) != tb.Matches(tid, cond) {
				t.Fatalf("tid %d verified %v", tid, !tb.Matches(tid, cond))
			}
			verify(tid)
			touched[h.PageOf(tid)] = true
		}
		if got := ctr.Reads(stats.StructTable); got != int64(len(touched)) || ctr.TotalReads() != got {
			t.Fatalf("query %d: %d reads for %d pages touched", query, ctr.TotalReads(), len(touched))
		}
	}

	for tb.Len() < 1000+3*rows {
		tb.Append([]int32{1, 2}, []float64{0.5, 0.5})
	}
	ctr, visited := stats.New(), 0
	Scan(h, nil, nil, ctr, func(table.TID, []float64) { visited++ })
	if h.NumPages() != pages() || ctr.Reads(stats.StructTable) != int64(pages()) || visited != tb.Len() {
		t.Fatalf("after appends: %d pages, a pass charged %d and visited %d rows; want %d pages, %d rows",
			h.NumPages(), ctr.Reads(stats.StructTable), visited, pages(), tb.Len())
	}
}
