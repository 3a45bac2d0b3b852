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
	peak  int
}

// New returns an empty heap ordered by less (a min-heap when less reports
// strict "a orders before b").
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// From returns a heap of items ordered by less, built in place in O(n) — the
// way to start from a known set instead of n Pushes. The heap takes items
// over; Peak starts at their number.
func From[T any](items []T, less func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{items: items, less: less, peak: len(items)}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// Len reports the number of elements currently in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Peak reports the maximum size the heap has reached over its lifetime.
// The thesis reports "peak candidate heap size" for several figures.
func (h *Heap[T]) Peak() int { return h.peak }

// Push adds v to the heap.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
	if len(h.items) > h.peak {
		h.peak = len(h.items)
	}
}

// Pop removes and returns the minimum element. It panics if the heap is
// empty; callers guard with Len.
func (h *Heap[T]) Pop() T {
	n := len(h.items)
	top := h.items[0]
	h.items[0] = h.items[n-1]
	var zero T
	h.items[n-1] = zero
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

// Min returns the minimum element without removing it. It panics if the heap
// is empty.
func (h *Heap[T]) Min() T { return h.items[0] }

// Reset empties the heap, retaining allocated capacity. The peak counter is
// preserved so that reuse across query phases still reports a lifetime peak.
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

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
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

// Bounded is a fixed-capacity max-heap used to maintain "current best k"
// result sets: it keeps the k smallest scores seen, with the worst of them
// at the root so it can be evicted in O(log k).
type Bounded[T any] struct {
	items []T
	k     int
	worse func(a, b T) bool // true when a is worse (orders after) b
}

// NewBounded returns a result heap retaining the k best elements under the
// given "worse" ordering (worse(a,b) == true means a should be evicted
// before b).
func NewBounded[T any](k int, worse func(a, b T) bool) *Bounded[T] {
	if k < 0 {
		k = 0
	}
	return &Bounded[T]{k: k, worse: worse}
}

// Len reports how many elements are retained.
func (b *Bounded[T]) Len() int { return len(b.items) }

// Full reports whether k elements are retained.
func (b *Bounded[T]) Full() bool { return len(b.items) >= b.k }

// Worst returns the current worst retained element (the kth best so far).
// It panics when empty.
func (b *Bounded[T]) Worst() T { return b.items[0] }

// Offer considers v for membership. It returns true when v was retained
// (possibly evicting the previous worst).
func (b *Bounded[T]) Offer(v T) bool {
	if b.k == 0 {
		return false
	}
	if len(b.items) < b.k {
		b.items = append(b.items, v)
		b.up(len(b.items) - 1)
		return true
	}
	if b.worse(v, b.items[0]) {
		return false
	}
	b.items[0] = v
	b.down(0)
	return true
}

// Sorted drains the heap and returns the retained elements ordered best
// first. The heap is empty afterwards.
func (b *Bounded[T]) Sorted() []T {
	out := make([]T, len(b.items))
	for i := len(b.items) - 1; i >= 0; i-- {
		out[i] = b.popWorst()
	}
	return out
}

// Items returns the retained elements in internal heap order. The slice is
// owned by the heap; callers must not modify it.
func (b *Bounded[T]) Items() []T { return b.items }

func (b *Bounded[T]) popWorst() T {
	n := len(b.items)
	top := b.items[0]
	b.items[0] = b.items[n-1]
	var zero T
	b.items[n-1] = zero
	b.items = b.items[:n-1]
	if len(b.items) > 0 {
		b.down(0)
	}
	return top
}

func (b *Bounded[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.worse(b.items[i], b.items[parent]) {
			return
		}
		b.items[i], b.items[parent] = b.items[parent], b.items[i]
		i = parent
	}
}

func (b *Bounded[T]) down(i int) {
	n := len(b.items)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && b.worse(b.items[l], b.items[w]) {
			w = l
		}
		if r < n && b.worse(b.items[r], b.items[w]) {
			w = r
		}
		if w == i {
			return
		}
		b.items[i], b.items[w] = b.items[w], b.items[i]
		i = w
	}
}
