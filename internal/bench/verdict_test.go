package bench

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rankcube/internal/stats"
)

// Views of a point that the verdicts compare.
var (
	inReads  = func(p Point) float64 { return p.Reads }
	inStates = func(p Point) float64 { return p.States }
	inHeap   = func(p Point) float64 { return float64(p.PeakHeap) }
	inValue  = func(p Point) float64 { return p.Value }
)

// Relations a verdict asserts between two series at a sweep position.
var (
	below    = func(a, b float64) bool { return a < b }
	notAbove = func(a, b float64) bool { return a <= b }
	equal    = func(a, b float64) bool { return a == b }
	farBelow = func(a, b float64) bool { return 5*a < b }
)

// pointAt returns the named series' point at sweep position x.
func pointAt(t *testing.T, r *Report, series, x string) Point {
	t.Helper()
	for _, s := range r.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p
			}
		}
	}
	t.Fatalf("%s has no point %q of series %q", r.ID, x, series)
	return Point{}
}

// hold asserts that rel holds between series a and series b of r, viewed
// through view, at each of the listed sweep positions — at every position
// when none is listed.
func hold(t *testing.T, r *Report, view func(Point) float64, a string, rel func(a, b float64) bool, b string, xs ...string) {
	t.Helper()
	if len(xs) == 0 {
		for _, p := range r.Series[0].Points {
			xs = append(xs, p.X)
		}
	}
	for _, x := range xs {
		if va, vb := view(pointAt(t, r, a, x)), view(pointAt(t, r, b, x)); !rel(va, vb) {
			t.Errorf("%s at %s: %s = %v against %s = %v", r.ID, x, a, va, b, vb)
		}
	}
}

// TestPaperVerdicts asserts what the thesis' figures are there to show — who
// wins each comparison, by roughly how much — in governed block reads (and,
// where the thesis plots them, states, heap entries and bytes), which repeat
// to the digit for a seed, at scales small enough for the whole table to run
// in seconds: scale 0.03 is T = 90k rows in chapter 3 and 30k in chapters 4
// and 7, scale 0.01 is 10k rows in chapters 5 and 6. Where a scale is chosen
// for margin or a run contradicts the thesis, the row says so.
func TestPaperVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 experiments; skipped with -short")
	}
	for _, v := range []struct {
		id      string
		scale   float64
		verdict func(t *testing.T, r *Report)
	}{
		{"fig3.4", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inReads, "ranking-cube", below, "rank-mapping")
			hold(t, r, inReads, "ranking-cube", below, "baseline")
		}},
		// Adaptive coding of the signatures is smaller than the baseline
		// coding at every cardinality.
		{"fig4.10", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inValue, "Compress", below, "Baseline")
		}},
		// At T = 10k (scale 0.01) the k = 100 margin between Signature and
		// Boolean is 57.6 against 60.4 reads; T = 30k leaves room.
		{"fig4.12", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inReads, "Signature", below, "Boolean")
			hold(t, r, inReads, "Boolean", below, "Ranking")
		}},
		{"fig4.13", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inValue, "Signature", below, "Ranking") // R-tree blocks, what the figure plots
		}},
		// Index merge against the table scan, at every k: the merge reads a
		// fraction of the scan's blocks on fs (fig. 5.7) and fc (fig. 5.9).
		{"fig5.7", 0.01, func(t *testing.T, r *Report) { hold(t, r, inReads, "PE", below, "TS") }},
		{"fig5.9", 0.01, func(t *testing.T, r *Report) { hold(t, r, inReads, "PE", below, "TS") }},
		// Not so on fg = (A − B²)² at this size, and the thesis does not say
		// so: at every k the merge reads every node of both B+-trees, more
		// blocks than scanning the 10k rows (README, "Reproducing the thesis'
		// figures"). A change that fixes it flips this row.
		{"fig5.8", 0.01, func(t *testing.T, r *Report) { hold(t, r, inReads, "TS", below, "PE") }},
		{"fig5.11", 0.01, func(t *testing.T, r *Report) {
			hold(t, r, inStates, "PE", farBelow, "BL", "fs", "fc")
			hold(t, r, inStates, "PE+SIG", notAbove, "PE", "fg")
		}},
		{"fig5.12", 0.01, func(t *testing.T, r *Report) {
			hold(t, r, inHeap, "PE", farBelow, "BL", "fs", "fc")
			hold(t, r, inHeap, "PE+SIG", notAbove, "PE", "fg")
		}},
		// At 3 000 rows per relation (scale 0.01) the margin at 10 000 join
		// keys is 39.6 against 42 reads; 9 000 rows leave room.
		{"fig6.3", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inReads, "ranking-cube", below, "join-then-rank")
		}},
		{"fig7.4", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inReads, "Signature", below, "Boolean")
			hold(t, r, inReads, "Signature", below, "Ranking")
			// …and growing slower than T: five times the rows, under three
			// times the reads.
			if first, last := pointAt(t, r, "Signature", "1M"), pointAt(t, r, "Signature", "5M"); last.Reads >= 3*first.Reads {
				t.Errorf("fig7.4: Signature reads grew %v → %v over 5× the rows", first.Reads, last.Reads)
			}
		}},
		// Navigation answered from the previous snapshot reads less than the
		// same query asked afresh, query by query, both ways: a drill-down
		// re-constructs its candidate heap, and a roll-up, which walks again
		// from the root, pays nothing for the nodes the tight query had read.
		{"fig7.13", 0.03, func(t *testing.T, r *Report) { hold(t, r, inReads, "drill-down", below, "new-query") }},
		{"fig7.14", 0.03, func(t *testing.T, r *Report) { hold(t, r, inReads, "roll-up", below, "new-query") }},
		{"ext.idlist", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inValue, "compressed", below, "plain", "space MB")
			hold(t, r, inReads, "compressed", equal, "plain", "k=10, 2 conditions")
		}},
		{"ext.bloom", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inValue, "bloom", below, "exact", "space MB")
			verify := func(p Point) float64 { return p.ReadsBy[stats.StructTable] }
			hold(t, r, verify, "exact", below, "bloom", "k=20, 1 condition")
			if v := verify(pointAt(t, r, "exact", "k=20, 1 condition")); v != 0 {
				t.Errorf("ext.bloom: exact signatures made %v verifying table reads per query", v)
			}
		}},
		// The thesis expects the grid partition to suffer from dead cells on
		// skewed data, and it does: with a leaf charged a page per fanout of its
		// tuples, the grid reads more than the R-tree on uniform data (19.2 vs
		// 16.4) and more again on correlated data (26.5 vs 16.6), where half
		// of the leaves hold more than a page, the largest 2 190 tuples.
		{"ext.gridpart", 0.03, func(t *testing.T, r *Report) {
			hold(t, r, inReads, "rtree-partition", below, "grid-partition")
		}},
	} {
		v := v
		t.Run(v.id, func(t *testing.T) {
			r, err := Run(context.Background(), v.id, Config{Scale: v.scale, Queries: 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + r.String())
			v.verdict(t, r)
		})
	}
}

// TestFig7_12TimesThePathQueryRuns holds fig. 7.12's instrumented run to the
// search the engine runs: over the figure's own dataset and queries it
// generates the states and charges the reads, structure by structure, that
// Engine.Skyline does, and what it books under signature-time is part of it.
func TestFig7_12TimesThePathQueryRuns(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Scale: 0.03, Queries: 10, Seed: 1}
	rep, err := Run(ctx, "fig7.12", cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := newCh7Env(ch7Data(cfg, 1_000_000, 100), 0)
	for np := 1; np <= 3; np++ {
		want := run(ctx, cfg.Queries, func(qi int, ctr *stats.Counters) {
			env.signatureSkyline(ch7Query(cfg, env.tb, qi, np, 2), ctr)
		})
		x := fmt.Sprint(np)
		total, sig := pointAt(t, rep, "total-time", x), pointAt(t, rep, "signature-time", x)
		if total.States != want.States || total.PeakHeap != want.PeakHeap || !reflect.DeepEqual(total.ReadsBy, want.ReadsBy) {
			t.Errorf("%d predicates: instrumented run generated %v states (peak heap %d) and read %v; Engine.Skyline %v (%d) and %v",
				np, total.States, total.PeakHeap, total.ReadsBy, want.States, want.PeakHeap, want.ReadsBy)
		}
		wantSig := map[stats.Structure]float64{stats.StructSignature: want.ReadsBy[stats.StructSignature]}
		if !reflect.DeepEqual(sig.ReadsBy, wantSig) || sig.CPUms <= 0 || sig.CPUms >= total.CPUms {
			t.Errorf("%d predicates: signature-time is %v ms and %v of a query of %v ms reading %v",
				np, sig.CPUms, sig.ReadsBy, total.CPUms, wantSig)
		}
	}
}
