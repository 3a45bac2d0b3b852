package heap

import (
	"math/rand"
	"testing"
)

// swapHeap is the swapping sift Heap and Bounded had before their sifts
// moved an item once: every level swaps the moving item with a parent or a
// child. Bounded is the same heap under its worse ordering.
type swapHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *swapHeap[T]) push(v T) {
	h.items = append(h.items, v)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *swapHeap[T]) pop() T {
	n := len(h.items)
	top := h.items[0]
	h.items[0] = h.items[n-1]
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

func (h *swapHeap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.items[l], h.items[small]) {
			small = l
		}
		if r < n && h.less(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// offer is Bounded.Offer over the swapping sift.
func (h *swapHeap[T]) offer(k int, v T) bool {
	if len(h.items) < k {
		h.push(v)
		return true
	}
	if k == 0 || h.less(v, h.items[0]) {
		return false
	}
	h.items[0] = v
	h.down(0)
	return true
}

// tagged is a key that ties often and an id that tells tied items apart.
type tagged struct{ key, id int }

func lessKey(a, b tagged) bool  { return a.key < b.key }
func worseKey(a, b tagged) bool { return a.key > b.key }

// TestSiftOrderIsPinned: under heavy key ties, Heap pops and Bounded keeps,
// evicts and sorts the very items, id for id, that the swapping sift did.
func TestSiftOrderIsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	id := 0
	next := func() tagged { id++; return tagged{rng.Intn(4), id} }
	for trial := 0; trial < 200; trial++ {
		seed := make([]tagged, rng.Intn(40))
		for i := range seed {
			seed[i] = next()
		}
		h := New(lessKey)
		ref := &swapHeap[tagged]{less: lessKey}
		for _, v := range seed {
			h.Push(v)
			ref.push(v)
		}
		for op := 0; op < 300; op++ {
			if h.Len() > 0 && rng.Intn(5) < 2 {
				if got, want := h.Pop(), ref.pop(); got != want {
					t.Fatalf("trial %d op %d: Heap pops %v, the swapping sift %v", trial, op, got, want)
				}
				continue
			}
			v := next()
			h.Push(v)
			ref.push(v)
		}
		for h.Len() > 0 {
			if got, want := h.Pop(), ref.pop(); got != want {
				t.Fatalf("trial %d drain: Heap pops %v, the swapping sift %v", trial, got, want)
			}
		}

		k := rng.Intn(12)
		b := NewBounded[tagged](k, worseKey)
		bref := &swapHeap[tagged]{less: worseKey}
		for op := 0; op < 200; op++ {
			v := next()
			if got, want := b.Offer(v), bref.offer(k, v); got != want {
				t.Fatalf("trial %d op %d: Bounded.Offer(%v) = %v, the swapping sift %v", trial, op, v, got, want)
			}
			if b.Len() > 0 && b.Worst() != bref.items[0] {
				t.Fatalf("trial %d op %d: Bounded.Worst %v, the swapping sift %v", trial, op, b.Worst(), bref.items[0])
			}
		}
		got := b.Sorted()
		for i := len(got) - 1; i >= 0; i-- {
			if want := bref.pop(); got[i] != want {
				t.Fatalf("trial %d: Bounded.Sorted()[%d] = %v, the swapping sift %v", trial, i, got[i], want)
			}
		}
	}
}
