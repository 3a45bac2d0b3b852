package sigcube

import (
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/heap"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// lessState is the search's order as internal/heap takes it: by score, a
// tuple ahead of a node at equal score.
func lessState[C any](a, b State[C]) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Tuple && !b.Tuple
}

// TestCandidatesPopLikeHeap puts 10 000 random pushes and pops to a search's
// candidate heap and to heap.Heap under lessState — scores drawn from a handful of values,
// ±0 and +Inf among them, so that nearly every comparison is a tie, tuples and
// nodes mixed — and requires the same state from every pop, then from the
// drain: the search's tie order is the heap's.
func TestCandidatesPopLikeHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	scores := []float64{0, math.Copysign(0, -1), 0.5, 1, 1, 2, math.Inf(1)}
	var got BestFirst[int32]
	want := heap.New(lessState[int32])
	same := func(op int, a, b State[int32]) {
		if a != b {
			t.Fatalf("op %d: the search popped %+v, heap.Heap %+v", op, a, b)
		}
	}
	for op := 0; op < 10000; op++ {
		// Push 3 times in 4 for a while, then once in 4, so the heap is tried
		// at every size.
		pushes := 3
		if op/500%2 == 1 {
			pushes = 1
		}
		if want.Len() == 0 || rng.Intn(4) < pushes {
			st := State[int32]{Score: scores[rng.Intn(len(scores))], SID: uint64(op), Ref: int32(rng.Intn(100)),
				C: int32(op), Tuple: rng.Intn(2) == 0, kind: uint8(rng.Intn(3))}
			got.push(st)
			want.Push(st)
		} else {
			same(op, got.pop(), want.Pop())
		}
		if len(got.heap) != want.Len() {
			t.Fatalf("op %d: %d states, heap.Heap %d", op, len(got.heap), want.Len())
		}
	}
	for want.Len() > 0 {
		same(-1, got.pop(), want.Pop())
	}
	if len(got.heap) != 0 {
		t.Fatalf("%d states left after the drain", len(got.heap))
	}
}

// TestReleasedScannerReadsNothing releases a scanner mid-stream: it is
// exhausted from then on, charges nothing, and a scanner opened after it — on
// the storage it gave back — streams what a fresh one does.
func TestReleasedScannerReadsNothing(t *testing.T) {
	tb := table.Generate(table.GenSpec{T: 3000, S: 2, R: 2, Card: 4, Seed: 43})
	cube := Build(tb, Config{RTree: rtree.Config{Fanout: 12}})
	f := ranking.Sum(0, 1)
	stream := func(n int) []State[struct{}] {
		sc, err := cube.Scan(map[int]int32{0: 1}, f, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Release()
		var out []State[struct{}]
		for len(out) < n {
			st, ok := sc.Pop()
			if !ok {
				break
			}
			out = append(out, st)
		}
		return out
	}
	want := stream(40)

	ctr := stats.New()
	sc, err := cube.Scan(map[int]int32{0: 1}, f, ctr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := sc.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	sc.Release()
	reads, states := ctr.TotalReads(), ctr.StatesExamined
	if _, ok := sc.Next(); ok || !math.IsInf(sc.Bound(), 1) {
		t.Fatalf("a released scanner answers: ok %v, bound %v", ok, sc.Bound())
	}
	if ctr.TotalReads() != reads || ctr.StatesExamined != states {
		t.Fatalf("a released scanner charged %d reads, %d states", ctr.TotalReads()-reads, ctr.StatesExamined-states)
	}
	sc.Release()
	got := stream(40)
	if len(got) != len(want) {
		t.Fatalf("%d states after reuse, %d fresh", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d after reuse: %+v, fresh %+v", i, got[i], want[i])
		}
	}
}
