// Package heap provides a small generic binary min-heap used by the query
// processors (top-k heaps, candidate heaps, local expansion heaps).
//
// The standard library container/heap forces an interface-based API with
// per-element boxing; the query algorithms in this repository maintain many
// short-lived heaps on hot paths, so a concrete generic implementation is
// used instead.
package heap

// Heap is a binary min-heap ordered by the provided less function.
// The zero value is not usable; construct with New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less (a min-heap when less reports
// strict "a orders before b").
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of elements currently in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds v to the heap.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items)-1, v)
}

// Pop removes and returns the minimum element. It panics if the heap is
// empty; callers guard with Len.
func (h *Heap[T]) Pop() T {
	n := len(h.items)
	top, last := h.items[0], h.items[n-1]
	var zero T
	h.items[n-1] = zero
	h.items = h.items[:n-1]
	if n > 1 {
		h.down(0, last)
	}
	return top
}

// Min returns the minimum element without removing it. It panics if the heap
// is empty.
func (h *Heap[T]) Min() T { return h.items[0] }

// Reset empties the heap, retaining allocated capacity.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

// Items returns the underlying slice in heap order (not sorted). The slice
// is owned by the heap; callers must not modify it. It is exposed for
// candidate-heap reuse in drill-down/roll-up query processing (thesis §7.2.4).
func (h *Heap[T]) Items() []T { return h.items }

// up moves v, the item at the hole i, toward the root past every parent it
// orders before, shifting each such parent down a level, and writes v once
// where it stops.
func (h *Heap[T]) up(i int, v T) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = v
}

// down places v, the item for the hole i, toward the leaves: while a child
// orders before it, the smaller child moves up into the hole. It compares
// what the swapping sift compared, in the same order, so ties resolve the
// same way.
func (h *Heap[T]) down(i int, v T) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := i
		if h.less(h.items[l], v) {
			small = l
		}
		if r := l + 1; r < n && (small == i && h.less(h.items[r], v) || small == l && h.less(h.items[r], h.items[l])) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i] = h.items[small]
		i = small
	}
	h.items[i] = v
}

// Bounded is a fixed-capacity max-heap used to maintain "current best k"
// result sets: it keeps the k smallest scores seen, with the worst of them
// at the root so it can be evicted in O(log k).
type Bounded[T any] struct {
	h Heap[T] // ordered by worse: the worst retained element at the root
	k int
}

// NewBounded returns a result heap retaining the k best elements under the
// given "worse" ordering (worse(a,b) == true means a should be evicted
// before b).
func NewBounded[T any](k int, worse func(a, b T) bool) *Bounded[T] {
	if k < 0 {
		k = 0
	}
	return &Bounded[T]{h: Heap[T]{less: worse}, k: k}
}

// Reset empties b and sets it to retain the k best elements from now on,
// keeping its storage for their reuse.
func (b *Bounded[T]) Reset(k int) {
	b.h.Reset()
	b.k = max(k, 0)
}

// Len reports how many elements are retained.
func (b *Bounded[T]) Len() int { return b.h.Len() }

// Full reports whether k elements are retained.
func (b *Bounded[T]) Full() bool { return b.h.Len() >= b.k }

// Worst returns the current worst retained element (the kth best so far).
// It panics when empty.
func (b *Bounded[T]) Worst() T { return b.h.Min() }

// Offer considers v for membership. It returns true when v was retained
// (possibly evicting the previous worst).
func (b *Bounded[T]) Offer(v T) bool {
	if b.k == 0 {
		return false
	}
	if b.h.Len() < b.k {
		b.h.Push(v)
		return true
	}
	if b.h.less(v, b.h.items[0]) {
		return false
	}
	b.h.down(0, v)
	return true
}

// Sorted drains the heap and returns the retained elements ordered best
// first. The heap is empty afterwards.
func (b *Bounded[T]) Sorted() []T {
	out := make([]T, b.h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = b.h.Pop()
	}
	return out
}
