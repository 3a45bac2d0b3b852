package heap

import (
	"math"
	"math/rand"
	"testing"
)

// lessItem is Keyed's order as Heap takes it.
func lessItem(a, b Item[int]) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Tie < b.Tie
}

// TestKeyedPopsLikeHeap puts 10 000 interleaved pushes and pops to Keyed and
// to Heap under lessItem — keys drawn from a handful of values, ±0 and +Inf
// among them, ties from two, so that most comparisons tie on the key and many
// on both fields — and requires the same item, payload included, from every
// pop and from the drain. Then, at several sizes, a heapified slice pops what
// Heap pops after the slice's items were pushed in slice order.
func TestKeyedPopsLikeHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	keys := []float64{0, math.Copysign(0, -1), 0.5, 1, 1, 2, math.Inf(1)}
	id := 0
	next := func() Item[int] {
		id++
		return Item[int]{Key: keys[rng.Intn(len(keys))], Tie: uint64(rng.Intn(2)), Val: id}
	}
	var got Keyed[int]
	want := New(lessItem)
	for op := 0; op < 10000; op++ {
		// Push 3 times in 4 for a while, then once in 4, so the heap is tried
		// at every size.
		pushes := 3
		if op/500%2 == 1 {
			pushes = 1
		}
		if want.Len() == 0 || rng.Intn(4) < pushes {
			v := next()
			got.Push(v)
			want.Push(v)
		} else if a, b := got.Pop(), want.Pop(); a != b {
			t.Fatalf("op %d: Keyed pops %+v, Heap %+v", op, a, b)
		}
		if len(got) != want.Len() {
			t.Fatalf("op %d: Keyed holds %d items, Heap %d", op, len(got), want.Len())
		}
	}
	for want.Len() > 0 {
		if a, b := got.Pop(), want.Pop(); a != b {
			t.Fatalf("drain: Keyed pops %+v, Heap %+v", a, b)
		}
	}
	if len(got) != 0 {
		t.Fatalf("Keyed holds %d items after the drain", len(got))
	}

	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000} {
		built, pushed := make(Keyed[int], n), New(lessItem)
		for i := range built {
			built[i] = next()
			pushed.Push(built[i])
		}
		built.Heapify()
		for i := 0; i < n; i++ {
			if a, b := built.Pop(), pushed.Pop(); a != b {
				t.Fatalf("n=%d: pop %d of the heapified items = %+v, pushed %+v", n, i, a, b)
			}
		}
	}
}

// TestKeyedAllocatesNothing: once its storage has grown, a Keyed push, pop,
// heapify and reset cycle allocates nothing. A heap ordered by a method of a
// type parameter, called through the generic dictionary, would allocate at
// every comparison.
func TestKeyedAllocatesNothing(t *testing.T) {
	var h Keyed[int32]
	cycle := func() {
		for i := 0; i < 256; i++ {
			h.Push(Item[int32]{Key: float64(i * 7 % 31), Tie: uint64(i % 3), Val: int32(i)})
		}
		for len(h) > 128 {
			h.Pop()
		}
		h.Heapify()
		for len(h) > 0 {
			h.Pop()
		}
		h.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm push/pop/heapify cycle makes %v allocations, want 0", allocs)
	}
}
