// Package core holds the pieces of the ranking-cube framework shared by its
// two implementations (thesis §4.1.1): the grid partition with neighborhood
// search (internal/gridcube) and the hierarchical partition with top-down
// search (internal/sigcube), plus the baselines and extensions built around
// them. The unified framework is: (1) a rank-aware data partition P, (2) a
// per-predicate measure M(P|B) telling which partitions contain satisfying
// tuples, and (3) a progressive search S that retrieves a partition only
// when it may beat the current top-k and M marks it non-empty.
package core

import (
	"rankcube/internal/heap"
	"rankcube/internal/table"
)

// Result is one scored tuple of a top-k answer, ascending scores preferred.
type Result struct {
	TID   table.TID
	Score float64
}

// WorseResult orders results for bounded top-k heaps: higher score is worse;
// ties break toward higher tid so results are deterministic. TopK keeps this
// order on two keyed fields.
func WorseResult(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.TID > b.TID
}

// TopK keeps the k best results offered, under WorseResult's order, on a
// heap.KeyedBounded (Reset, Len and Full are its own): a result is the item
// of key −Score and tie ^TID, so an item orders before another exactly when
// its result is worse, and the worst kept sits at the root. Negation and
// complement are exact, so the item gives the result back bit for bit.
// Scores are never NaN: the relation and the functions' constants refuse it.
// Its zero value keeps nothing until Reset.
type TopK struct{ heap.KeyedBounded[struct{}] }

// Offer considers the result r and reports whether it was kept, possibly
// evicting the worst.
func (t *TopK) Offer(r Result) bool {
	return t.KeyedBounded.Offer(heap.Item[struct{}]{Key: -r.Score, Tie: ^uint64(r.TID)})
}

// Worst returns the worst result kept, the kth best so far. It panics when
// none is kept.
func (t *TopK) Worst() Result { return result(t.Min()) }

// Sorted drains t and returns the results it kept, best first.
func (t *TopK) Sorted() []Result {
	out := make([]Result, t.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = result(t.Pop())
	}
	return out
}

// result is the result an item of TopK keys.
func result(it heap.Item[struct{}]) Result {
	return Result{TID: table.TID(^it.Tie), Score: -it.Key}
}

// Cond is a conjunctive multi-dimensional selection: selection-dimension
// position → required value. It is the boolean predicate B of the thesis'
// query model (§1.2.1).
type Cond map[int]int32

// Dims lists the constrained dimensions in ascending order.
func (c Cond) Dims() []int {
	out := make([]int, 0, len(c))
	for d := range c {
		out = append(out, d)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// IntsKey encodes a short list of small non-negative ints — a cuboid's
// dimension set, a partition path — as a map key, two bytes each.
func IntsKey(vs []int) string {
	b := make([]byte, 0, len(vs)*2)
	for _, v := range vs {
		b = append(b, byte(v>>8), byte(v))
	}
	return string(b)
}

// IntersectSorted leaves in a[:0] the tids of the ascending list a that the
// ascending list b holds too, and returns it.
func IntersectSorted(a, b []table.TID) []table.TID {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
