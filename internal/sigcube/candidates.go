package sigcube

import (
	"sync"

	"rankcube/internal/core"
	"rankcube/internal/heap"
	"rankcube/internal/poison"
)

// Candidates is the storage of one search's states: the candidate heap, and
// the record of the survivors its deferred entries stand for. A caller that
// keeps one from search to search hands it to each in turn (NewBestFirst),
// which empties it first; the zero value is ready.
type Candidates[C any] struct {
	// heap holds the states in the search's order: by score, a tuple ahead of
	// a node at equal score (State.Tuple). Both are its key.
	heap heap.Keyed[queued[C]]
	// kids holds, in slot order, the scored survivors of every node the
	// search deferred, one run per deferred entry, which names its run by
	// offset (SID) and length (Ref). It is kept until the search ends: it
	// grows by at most the fanout per node read, so the read budget bounds it.
	kids []State[C]
	// out collects a top-k answer before it is copied out (take).
	out []core.Result
}

// queued is a State on the heap less its score and tuple flag.
type queued[C any] struct {
	sid  uint64
	ref  int32
	c    C
	kind uint8
}

// scanners keeps the storage of finished Scanners for the next (Release).
var scanners = sync.Pool{New: func() any { return new(Candidates[struct{}]) }}

// reset empties the heap and the record, keeping their capacity.
func (h *Candidates[C]) reset() {
	poison.Fill(h.kids, State[C]{Score: poison.Score, SID: poison.SID, Ref: poison.TID})
	poison.Fill(h.out, core.Result{TID: poison.TID, Score: poison.Score})
	h.heap.Reset()
	clear(h.kids)
	h.kids = h.kids[:0]
}

// push adds v.
func (h *Candidates[C]) push(v State[C]) {
	tie := uint64(1)
	if v.Tuple {
		tie = 0
	}
	h.heap.Push(heap.Item[queued[C]]{Key: v.Score, Tie: tie, Val: queued[C]{v.SID, v.Ref, v.C, v.kind}})
}

// pop removes and returns the first state in order. It panics on an empty
// heap.
func (h *Candidates[C]) pop() State[C] {
	e := h.heap.Pop()
	return State[C]{Score: e.Key, SID: e.Val.sid, Ref: e.Val.ref, C: e.Val.c, Tuple: e.Tie == 0, kind: e.Val.kind}
}
