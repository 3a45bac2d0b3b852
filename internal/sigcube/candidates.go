package sigcube

import "sync"

// Candidates is the storage of one search's states: the candidate heap, and
// the record of the survivors its deferred entries stand for. A caller that
// keeps one from search to search hands it to each in turn (NewBestFirst),
// which empties it first; the zero value is ready.
//
// The heap is a binary min-heap in the search's order (before) whose sift
// compares states inline: the comparison is every step of every push and pop
// of the search, and a heap ordered through a function value pays a call for
// each. It moves states exactly as internal/heap's Heap does, so the two pop
// the same states in the same order, ties included.
type Candidates[C any] struct {
	heap []State[C]
	// kids holds, in slot order, the scored survivors of every node the
	// search deferred, one run per deferred entry, which names its run by
	// offset (SID) and length (Ref). It is kept until the search ends: it
	// grows by at most the fanout per node read, so the read budget bounds it.
	kids []State[C]
}

// scanners keeps the storage of finished Scanners for the next (Release).
var scanners = sync.Pool{New: func() any { return new(Candidates[struct{}]) }}

// reset empties the heap and the record, keeping their capacity.
func (h *Candidates[C]) reset() {
	clear(h.heap)
	h.heap = h.heap[:0]
	clear(h.kids)
	h.kids = h.kids[:0]
}

// before is the search's order: by score, a tuple ahead of a node at equal
// score (State.Tuple). A method on pointers so that the sift inlines it.
func (a *State[C]) before(b *State[C]) bool {
	return a.Score < b.Score || a.Score == b.Score && a.Tuple && !b.Tuple
}

// push adds v: up from the new hole past every parent v orders before,
// shifting each down a level, and v written once where it stops.
func (h *Candidates[C]) push(v State[C]) {
	h.heap = append(h.heap, v)
	items := h.heap
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !v.before(&items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = v
}

// pop removes and returns the first state in order. It panics on an empty
// heap. The last state goes from the root down: while a child orders before
// it, the smaller child moves up into the hole; the comparisons are
// Heap.down's, in its order.
func (h *Candidates[C]) pop() State[C] {
	items := h.heap
	n := len(items) - 1
	top, v := items[0], items[n]
	items[n] = State[C]{}
	h.heap = items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		at, small := i, &v
		if items[l].before(small) {
			at, small = l, &items[l]
		}
		if r := l + 1; r < n && items[r].before(small) {
			at = r
		}
		if at == i {
			break
		}
		items[i] = items[at]
		i = at
	}
	items[i] = v
	return top
}
