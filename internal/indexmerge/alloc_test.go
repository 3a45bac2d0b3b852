package indexmerge

import (
	"testing"

	"rankcube/internal/ranking"
	"rankcube/internal/stats"
)

// TestMergeQueryAllocs pins what a warmed-up index-merge top-k allocates
// under each expansion: the answer. The arenas, the roots' boxes, the tuple
// table and the domain's center in it, the accessors and their page buffers
// and the result heap come from the pooled Merger.
func TestMergeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	_, idx := fixture(t, 20000, 61, 32)
	for _, tc := range []struct {
		name string
		f    ranking.Func
		want float64
	}{
		{"neighborhood", ranking.Linear([]int{0, 1}, []float64{1, 2}), 1},
		{"threshold", ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1))))), 1},
	} {
		ctr := stats.New()
		if res, err := TopK(idx, tc.f, 10, Options{}, ctr); err != nil || len(res) != 10 {
			t.Fatalf("%s: %d results, err %v", tc.name, len(res), err)
		}
		if ctr.StatesExamined == 0 {
			t.Fatalf("%s: the merge examined no state", tc.name)
		}
		if got := testing.AllocsPerRun(200, func() { TopK(idx, tc.f, 10, Options{}, ctr) }); got != tc.want {
			t.Fatalf("%s: a query allocates %v times, want %v", tc.name, got, tc.want)
		}
	}
}
