package core

import (
	"math"
	"math/rand"
	"testing"

	"rankcube/internal/heap"
	"rankcube/internal/table"
)

// sameTopK offers results to a TopK and to a heap.Bounded under WorseResult,
// both of k, and requires the same answer from every Offer, Len, Full and
// Worst, and the same results, bit for bit and in the same order, from
// Sorted. Scores are never NaN — the relation refuses a NaN ranking value and
// the functions a NaN constant, so no score an engine offers is one — and
// none is offered here.
func sameTopK(t *testing.T, name string, k int, offers []Result) {
	t.Helper()
	var got TopK
	got.Reset(k)
	want := heap.NewBounded(k, WorseResult)
	kept := 0
	for i, r := range offers {
		a, b := got.Offer(r), want.Offer(r)
		if a != b {
			t.Fatalf("%s k=%d: offer %d of %+v kept %v, Bounded %v", name, k, i, r, a, b)
		}
		if b && kept < k {
			kept++
		}
		if got.Len() != kept || got.Full() != want.Full() {
			t.Fatalf("%s k=%d: after offer %d %d kept, full %v; Bounded %d, full %v", name, k, i, got.Len(), got.Full(), kept, want.Full())
		}
		if kept > 0 && !same(got.Worst(), want.Worst()) {
			t.Fatalf("%s k=%d: after offer %d the worst kept is %+v, Bounded's %+v", name, k, i, got.Worst(), want.Worst())
		}
	}
	a, b := got.Sorted(), want.Sorted()
	if len(a) != len(b) {
		t.Fatalf("%s k=%d: %d sorted, Bounded %d", name, k, len(a), len(b))
	}
	for i := range a {
		if !same(a[i], b[i]) {
			t.Fatalf("%s k=%d: result %d is %+v, Bounded's %+v", name, k, i, a[i], b[i])
		}
	}
	if got.Len() != 0 {
		t.Fatalf("%s k=%d: %d kept after Sorted", name, k, got.Len())
	}
}

// same reports whether two results are equal bit for bit: −0 is not 0.
func same(a, b Result) bool {
	return a.TID == b.TID && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// TestTopKMatchesBounded: TopK keeps, evicts and sorts what heap.Bounded does
// under WorseResult — for k of 0, 1, n−1, n and n+5 — on hand-picked lists
// (ties on score, ±0, scores overflowed to ±Inf, offers best first and worst
// first) and on seeded lists whose scores are drawn from a handful of values.
func TestTopKMatchesBounded(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	big := math.MaxFloat64
	cases := []struct {
		name   string
		scores []float64
	}{
		{"ascending", []float64{1, 2, 3, 4, 5, 6}},
		{"descending", []float64{6, 5, 4, 3, 2, 1}},
		{"all tied", []float64{2, 2, 2, 2, 2}},
		{"signed zeros", []float64{0, negZero, 0, negZero, -1, 1}},
		{"overflowed", []float64{big * 2, -big * 2, big, -big, inf, -inf, 0}},
		{"one", []float64{7}},
		{"none", nil},
	}
	for _, tc := range cases {
		for _, order := range []string{"tid ascending", "tid descending"} {
			n := len(tc.scores)
			offers := make([]Result, n)
			for i, s := range tc.scores {
				tid := table.TID(i)
				if order == "tid descending" {
					tid = table.TID(n - 1 - i)
				}
				offers[i] = Result{TID: tid, Score: s}
			}
			for _, k := range []int{0, 1, n - 1, n, n + 5} {
				sameTopK(t, tc.name+", "+order, k, offers)
			}
		}
	}

	rng := rand.New(rand.NewSource(57))
	values := []float64{-inf, -1.5, negZero, 0, 0.25, 0.25, 3, inf}
	var reused TopK
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		offers := make([]Result, n)
		for i, tid := range rng.Perm(n) {
			offers[i] = Result{TID: table.TID(tid), Score: values[rng.Intn(len(values))]}
		}
		for _, k := range []int{0, 1, n - 1, n, n + 5} {
			sameTopK(t, "seeded", k, offers)
		}
		// A TopK carried from query to query answers as a fresh one does.
		k := rng.Intn(n + 2)
		reused.Reset(k)
		want := heap.NewBounded(k, WorseResult)
		for _, r := range offers {
			reused.Offer(r)
			want.Offer(r)
		}
		a, b := reused.Sorted(), want.Sorted()
		for i := range max(len(a), len(b)) {
			if i >= len(a) || i >= len(b) || !same(a[i], b[i]) {
				t.Fatalf("trial %d: a reused TopK of %d sorts %v, Bounded %v", trial, k, a, b)
			}
		}
	}
}
