// Package heap provides the binary min-heaps of the query processors.
//
// Keyed orders its items by two concrete fields, a float64 key and a uint64
// tie-break, compared inline: it serves every best-first loop whose order is
// such a key — the signature search's candidates (score, tuple before node),
// the grid cube's blocks (bound, bid) and index-merge's joint states (bound,
// leaf before node) — and, bounded as KeyedBounded, every top-k of results
// (core.TopK: score, then tuple id). Heap and Bounded take a less function
// instead: they serve the orders that are not two fields — index-merge's
// local heaps (ties by combo), the join's results (ties by a TID vector) —
// and the reference oracles.
//
// The standard library container/heap forces an interface-based API with
// per-element boxing; the query algorithms in this repository maintain many
// short-lived heaps on hot paths, so concrete generic implementations are
// used instead.
package heap

import "rankcube/internal/poison"

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

// Item is an element of a Keyed heap: ordered by Key, then by Tie.
type Item[T any] struct {
	Key float64
	Tie uint64
	Val T
}

// before is Keyed's order. A method on pointers so that the sifts inline it.
func (a *Item[T]) before(b *Item[T]) bool {
	return a.Key < b.Key || a.Key == b.Key && a.Tie < b.Tie
}

// Keyed is a binary min-heap of Items in (Key, Tie) order; its zero value is
// ready. Its sifts make Heap's comparisons in Heap's order, so under the same
// order the two pop the same items in the same order, ties included.
type Keyed[T any] []Item[T]

// Push adds v.
func (h *Keyed[T]) Push(v Item[T]) {
	*h = append(*h, v)
	h.up(len(*h)-1, v)
}

// up is Heap.up: v, the item for the hole i, moves toward the root past every
// parent it orders before.
func (h Keyed[T]) up(i int, v Item[T]) {
	for i > 0 {
		parent := (i - 1) / 2
		if !v.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = v
}

// Pop removes and returns the first item. It panics on an empty heap.
func (h *Keyed[T]) Pop() Item[T] {
	items := *h
	n := len(items) - 1
	top, v := items[0], items[n]
	items[n] = Item[T]{}
	*h = items[:n]
	if n > 0 {
		(*h).down(v)
	}
	return top
}

// down is Heap.down from the root, written out for Keyed: v, the item for the
// root's hole, moves toward the leaves while a child orders before it.
func (h Keyed[T]) down(v Item[T]) {
	i, n := 0, len(h)
	for l := 1; l < n; l = 2*i + 1 {
		at, small := i, &v
		if h[l].before(small) {
			at, small = l, &h[l]
		}
		if r := l + 1; r < n && h[r].before(small) {
			at = r
		}
		if at == i {
			break
		}
		h[i] = h[at]
		i = at
	}
	h[i] = v
}

// Heapify orders the items the heap's storage was filled with as pushing them
// one by one, in slice order, would: the same heap, ties included.
func (h Keyed[T]) Heapify() {
	for i := range h {
		h.up(i, h[i])
	}
}

// Reset empties the heap, keeping its capacity.
func (h *Keyed[T]) Reset() {
	poison.Fill(*h, Item[T]{Key: poison.Score, Tie: poison.SID})
	clear(*h)
	*h = (*h)[:0]
}

// KeyedBounded keeps the k greatest items offered in Keyed's order, the least
// of them at the root so that it is evicted in O(log k): a bounded top-k whose
// items are keyed so that the worst retained sits first. Its zero value
// retains nothing until Reset.
type KeyedBounded[T any] struct {
	h Keyed[T]
	k int
}

// Reset empties b and sets it to retain the k greatest items from now on,
// keeping its storage.
func (b *KeyedBounded[T]) Reset(k int) {
	b.h.Reset()
	b.k = max(k, 0)
}

// Len reports how many items are retained.
func (b *KeyedBounded[T]) Len() int { return len(b.h) }

// Full reports whether k items are retained.
func (b *KeyedBounded[T]) Full() bool { return len(b.h) >= b.k }

// Min returns the least retained item, the first evicted. It panics when
// empty.
func (b *KeyedBounded[T]) Min() Item[T] { return b.h[0] }

// Offer considers v for membership and reports whether it was retained,
// possibly evicting the least, whose place it takes before sifting down.
func (b *KeyedBounded[T]) Offer(v Item[T]) bool {
	switch {
	case len(b.h) < b.k:
		b.h.Push(v)
	case len(b.h) == 0 || v.before(&b.h[0]):
		return false
	default:
		b.h.down(v)
	}
	return true
}

// Pop removes and returns the least retained item. It panics when empty.
func (b *KeyedBounded[T]) Pop() Item[T] { return b.h.Pop() }

// Bounded is a fixed-capacity max-heap used to maintain "current best k"
// result sets under an order that is not two fields: it keeps the k smallest
// elements seen, with the worst of them at the root so it can be evicted in
// O(log k).
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
