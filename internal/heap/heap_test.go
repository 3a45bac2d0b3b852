package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapPopsInOrder(t *testing.T) {
	h := New[int](func(a, b int) bool { return a < b })
	vals := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range vals {
		h.Push(v)
	}
	for want := 0; want < len(vals); want++ {
		if got := h.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining", h.Len())
	}
}

func TestHeapMinMatchesPop(t *testing.T) {
	h := New[float64](func(a, b float64) bool { return a < b })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Push(rng.Float64())
	}
	for h.Len() > 0 {
		min := h.Min()
		if got := h.Pop(); got != min {
			t.Fatalf("Min = %v but Pop = %v", min, got)
		}
	}
}

func TestHeapPropertySorted(t *testing.T) {
	f := func(vals []int16) bool {
		h := New[int16](func(a, b int16) bool { return a < b })
		for _, v := range vals {
			h.Push(v)
		}
		var out []int16
		for h.Len() > 0 {
			out = append(out, h.Pop())
		}
		if len(out) != len(vals) {
			return false
		}
		return sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeapReset(t *testing.T) {
	h := New[int](func(a, b int) bool { return a < b })
	h.Push(3)
	h.Push(1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Reset", h.Len())
	}
	h.Push(5)
	if h.Min() != 5 {
		t.Fatalf("Min = %d after Reset+Push", h.Min())
	}
}

func TestBoundedKeepsKSmallest(t *testing.T) {
	b := NewBounded[int](3, func(a, x int) bool { return a > x })
	for _, v := range []int{9, 1, 8, 2, 7, 3, 6, 4, 5} {
		b.Offer(v)
	}
	got := b.Sorted()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Sorted len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestBoundedPropertyMatchesSort(t *testing.T) {
	f := func(vals []int32, kraw uint8) bool {
		k := int(kraw%10) + 1
		b := NewBounded[int32](k, func(a, x int32) bool { return a > x })
		for _, v := range vals {
			b.Offer(v)
		}
		got := b.Sorted()
		sorted := append([]int32(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if k > len(sorted) {
			k = len(sorted)
		}
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedZeroK(t *testing.T) {
	b := NewBounded[int](0, func(a, x int) bool { return a > x })
	if b.Offer(1) {
		t.Fatal("Offer accepted into k=0 heap")
	}
	if b.Full() {
		// A k=0 heap is trivially full; either convention is fine as long
		// as it never retains elements.
		t.Log("k=0 heap reports full")
	}
	if b.h.Len() != 0 {
		t.Fatalf("Len = %d for k=0 heap", b.h.Len())
	}
}

func TestBoundedWorstIsKthBest(t *testing.T) {
	b := NewBounded[int](4, func(a, x int) bool { return a > x })
	for v := 100; v > 0; v-- {
		b.Offer(v)
		if b.Full() {
			all := append([]int(nil), b.h.items...)
			sort.Ints(all)
			if b.Worst() != all[len(all)-1] {
				t.Fatalf("Worst = %d, want %d", b.Worst(), all[len(all)-1])
			}
		}
	}
	if b.Worst() != 4 {
		t.Fatalf("final Worst = %d, want 4", b.Worst())
	}
}

// TestKeyedBoundedResetMatchesFresh: a KeyedBounded reset to k — from full,
// from part full, to a larger k, a smaller one or zero — keeps, evicts and
// pops what a fresh one of k does, and, keys and ties drawn from a few values,
// what Bounded keeps under Keyed's order reversed.
func TestKeyedBoundedResetMatchesFresh(t *testing.T) {
	worse := func(a, b Item[int]) bool { return a.before(&b) }
	rng := rand.New(rand.NewSource(3))
	id := 0
	next := func() Item[int] {
		id++
		return Item[int]{Key: float64(rng.Intn(6)), Tie: uint64(rng.Intn(3)), Val: id}
	}
	var reused KeyedBounded[int]
	reused.Reset(5)
	for trial := 0; trial < 300; trial++ {
		for i := rng.Intn(20); i > 0; i-- {
			reused.Offer(next())
		}
		k := rng.Intn(12) - 1
		reused.Reset(k)
		var fresh KeyedBounded[int]
		fresh.Reset(k)
		ref := NewBounded(k, worse)
		for i := rng.Intn(40); i > 0; i-- {
			v := next()
			got, want := reused.Offer(v), fresh.Offer(v)
			if got != want || got != ref.Offer(v) {
				t.Fatalf("trial %d: Offer(%+v) after Reset(%d) = %v, fresh %v", trial, v, k, got, want)
			}
			if reused.Full() != fresh.Full() || reused.Full() != ref.Full() || reused.Len() > 0 && (reused.Min() != fresh.Min() || reused.Min() != ref.Worst()) {
				t.Fatalf("trial %d: after Reset(%d) Full %v Min %+v, fresh Full %v", trial, k, reused.Full(), reused.Min(), fresh.Full())
			}
		}
		want := ref.Sorted()
		if reused.Len() != len(want) || fresh.Len() != len(want) {
			t.Fatalf("trial %d: %d and %d items kept after Reset(%d), Bounded %d", trial, reused.Len(), fresh.Len(), k, len(want))
		}
		for i := len(want) - 1; i >= 0; i-- {
			if a, b := reused.Pop(), fresh.Pop(); a != want[i] || b != want[i] {
				t.Fatalf("trial %d: pop %d after Reset(%d) = %+v, fresh %+v, Bounded %+v", trial, i, k, a, b, want[i])
			}
		}
	}
}
