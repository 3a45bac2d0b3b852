package gridcube

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"rankcube/internal/errs"
	"rankcube/internal/ranking"
	"rankcube/internal/stats"
)

// refCover is the cover selection as it was written before the cube kept its
// cuboids in cover order: candidates gathered from the cuboid map, the
// maximal ones sorted widest first and then by fmt.Sprint of their dimensions,
// a greedy set cover over maps of dimensions.
func refCover(c *Cube, dims []int) ([]*Cuboid, error) {
	need := make(map[int]bool, len(dims))
	for _, d := range dims {
		need[d] = true
	}
	var candidates []*Cuboid
	for _, cb := range c.cuboids {
		inside := true
		for _, d := range cb.dims {
			if !need[d] {
				inside = false
				break
			}
		}
		if inside {
			candidates = append(candidates, cb)
		}
	}
	contains := func(sup, sub []int) bool {
		for _, d := range sub {
			if !slices.Contains(sup, d) {
				return false
			}
		}
		return true
	}
	var maximal []*Cuboid
	for _, cb := range candidates {
		dominated := false
		for _, other := range candidates {
			if other != cb && len(other.dims) > len(cb.dims) && contains(other.dims, cb.dims) {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, cb)
		}
	}
	sort.Slice(maximal, func(a, b int) bool {
		if len(maximal[a].dims) != len(maximal[b].dims) {
			return len(maximal[a].dims) > len(maximal[b].dims)
		}
		return fmt.Sprint(maximal[a].dims) < fmt.Sprint(maximal[b].dims)
	})
	uncovered := make(map[int]bool, len(dims))
	for _, d := range dims {
		uncovered[d] = true
	}
	var cover []*Cuboid
	for len(uncovered) > 0 {
		best, gain := -1, 0
		for i, cb := range maximal {
			g := 0
			for _, d := range cb.dims {
				if uncovered[d] {
					g++
				}
			}
			if g > gain {
				best, gain = i, g
			}
		}
		if best < 0 {
			var rest []int
			for d := range uncovered {
				rest = append(rest, d)
			}
			sort.Ints(rest)
			return nil, fmt.Errorf("gridcube: dimensions %v not covered by materialized fragments: %w", rest, errs.ErrInvalidArgument)
		}
		cover = append(cover, maximal[best])
		for _, d := range maximal[best].dims {
			delete(uncovered, d)
		}
	}
	return cover, nil
}

// TestCoverMatchesPrintedOrder holds the cover selection to refCover on every
// subset of twelve selection dimensions, over fragments of three and over
// overlapping groups in which "[1 10]" prints before "[1 2]" though 2 < 10:
// the same cuboids in the same order, or the same error. A cover ordered by
// the numbers instead differs on some subset, so the tie-break is exercised.
func TestCoverMatchesPrintedOrder(t *testing.T) {
	const s = 12
	tb := testTable(300, s, 2, 3, 91)
	for _, cfg := range []Config{
		{FragmentSize: 3},
		{Groups: [][]int{{1, 2}, {1, 10}, {2, 10}, {0, 3, 11}, {3, 4, 5}, {6, 7, 8, 9}, {9, 10, 11}, {0, 1, 11}}},
	} {
		c := Build(tb, cfg)
		numeric := slices.Clone(c.order)
		slices.SortStableFunc(numeric, func(a, b *Cuboid) int {
			if len(a.dims) != len(b.dims) {
				return len(b.dims) - len(a.dims)
			}
			return slices.Compare(a.dims, b.dims)
		})
		printed, differs := c.order, 0
		for mask := 0; mask < 1<<s; mask++ {
			var dims []int
			for d := 0; d < s; d++ {
				if mask&(1<<d) != 0 {
					dims = append(dims, d)
				}
			}
			got, gotErr := new(coverPlan).find(c, dims)
			want, wantErr := refCover(c, dims)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("%+v dims %v: cover %v (%v), before %v (%v)", cfg, dims, cuboidDims(got), gotErr, cuboidDims(want), wantErr)
			}
			c.order = numeric
			if byNumber, _ := new(coverPlan).find(c, dims); !slices.Equal(byNumber, want) {
				differs++
			}
			c.order = printed
		}
		if cfg.Groups != nil && differs == 0 {
			t.Fatal("ordering equally wide cuboids by number picks the same cover on every subset: the test shows nothing")
		}
	}
}

func cuboidDims(cover []*Cuboid) [][]int {
	out := make([][]int, len(cover))
	for i, cb := range cover {
		out[i] = cb.dims
	}
	return out
}

// TestGridQueryAllocs pins what a warmed-up grid query allocates: the answer,
// and for a convex function the point ArgMin returns. The block heap, the
// bitsets, the cell lists, the buffers and the top k come from the pool.
func TestGridQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	tb := testTable(20000, 3, 2, 5, 95)
	c := Build(tb, Config{BlockSize: 100})
	cond := map[int]int32{0: 1, 2: 3}
	for _, tc := range []struct {
		name string
		f    ranking.Func
		want float64
	}{
		{"linear", ranking.Linear([]int{0, 1}, []float64{1, 2.5}), 2},
		{"general", ranking.General(ranking.Sqr(ranking.Sub(ranking.Scale(1.5, ranking.Var(0)), ranking.Var(1)))), 1},
	} {
		q := Query{Cond: cond, F: tc.f, K: 10}
		ctr := stats.New()
		if res, err := c.TopK(q, ctr); err != nil || len(res) != q.K {
			t.Fatalf("%s: %d results, err %v", tc.name, len(res), err)
		}
		if got := testing.AllocsPerRun(200, func() { c.TopK(q, ctr) }); got != tc.want {
			t.Fatalf("%s: a query allocates %v times, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPooledStateAfterAbort: a query that aborts in the middle of its search —
// at every read budget below what it needs, so at every access it makes —
// leaves nothing behind for the next query on the same goroutine, which
// answers and reads as a query on a fresh state does.
func TestPooledStateAfterAbort(t *testing.T) {
	tb := testTable(20000, 3, 2, 6, 97)
	for _, packed := range []bool{false, true} {
		// Blocks of several pages: an abort between two of a block's pages
		// leaves marks of that block behind.
		c := Build(tb, Config{BlockSize: 800, FragmentSize: 1, CompressLists: packed})
		requireMultiPage(t, c)
		// Rows are in selection order: a predicate that leaves dimension 0
		// free spreads its rows over a block's pages, one on dimensions 0 and
		// 1 finds them on one or two.
		aborted := Query{Cond: map[int]int32{1: 2, 2: 0}, F: ranking.Sum(0, 1), K: 40}
		clean := Query{Cond: map[int]int32{0: 2, 1: 1}, F: ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Var(1)))), K: 15}
		wantCtr := stats.New()
		want, err := c.TopK(clean, wantCtr)
		if err != nil {
			t.Fatal(err)
		}
		full := stats.New()
		if _, err := c.TopK(aborted, full); err != nil {
			t.Fatal(err)
		}
		for limit := int64(1); limit < full.TotalReads(); limit++ {
			_, err := governedTopK(c, aborted, stats.Governed(nil, stats.Limits{MaxBlockReads: limit}, nil))
			if !errors.Is(err, errs.ErrBudgetExceeded) {
				t.Fatalf("packed=%v limit %d: err = %v, want ErrBudgetExceeded", packed, limit, err)
			}
			ctr := stats.New()
			got, err := c.TopK(clean, ctr)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || ctr.TotalReads() != wantCtr.TotalReads() || ctr.PeakHeap != wantCtr.PeakHeap {
				t.Fatalf("packed=%v after an abort at %d reads: %v (%d reads, peak %d), fresh %v (%d reads, peak %d)",
					packed, limit, got, ctr.TotalReads(), ctr.PeakHeap, want, wantCtr.TotalReads(), wantCtr.PeakHeap)
			}
		}
	}
}
