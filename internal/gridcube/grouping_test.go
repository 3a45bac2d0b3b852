package gridcube

import (
	"testing"

	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

func TestGroupsFromWorkloadMergesCooccurring(t *testing.T) {
	// Dimensions 0 and 3 always queried together; 1 and 2 together.
	history := [][]int{
		{0, 3}, {0, 3}, {0, 3}, {1, 2}, {1, 2}, {0, 3, 1},
	}
	groups := GroupsFromWorkload(history, 5, 2)
	if !hasGroup(groups, []int{0, 3}) {
		t.Fatalf("groups %v missing {0,3}", groups)
	}
	if !hasGroup(groups, []int{1, 2}) {
		t.Fatalf("groups %v missing {1,2}", groups)
	}
	// Every dimension appears exactly once.
	seen := map[int]int{}
	for _, g := range groups {
		for _, d := range g {
			seen[d]++
		}
	}
	for d := 0; d < 5; d++ {
		if seen[d] != 1 {
			t.Fatalf("dimension %d appears %d times in %v", d, seen[d], groups)
		}
	}
}

func TestGroupsFromWorkloadRespectsCap(t *testing.T) {
	history := [][]int{{0, 1, 2, 3, 4, 5}}
	for _, g := range GroupsFromWorkload(history, 6, 2) {
		if len(g) > 2 {
			t.Fatalf("group %v exceeds cap 2", g)
		}
	}
}

func TestGroupsFromWorkloadEmptyHistory(t *testing.T) {
	groups := GroupsFromWorkload(nil, 4, 2)
	seen := map[int]bool{}
	for _, g := range groups {
		for _, d := range g {
			seen[d] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("empty-history grouping covers %d of 4 dims: %v", len(seen), groups)
	}
}

func TestGroupsByCardinality(t *testing.T) {
	schema := table.Schema{
		SelNames: []string{"a", "b", "c", "d", "e"},
		SelCard:  []int{5000, 4, 4, 9000, 4},
	}
	groups := GroupsByCardinality(schema, 2, 1000)
	if !hasGroup(groups, []int{0}) || !hasGroup(groups, []int{3}) {
		t.Fatalf("high-cardinality dims not isolated: %v", groups)
	}
	if !hasGroup(groups, []int{1, 2}) || !hasGroup(groups, []int{4}) {
		t.Fatalf("low-cardinality grouping wrong: %v", groups)
	}
}

func TestWorkloadGroupingAnswersWorkloadWithOneFragment(t *testing.T) {
	tb := testTable(8000, 6, 2, 5, 56)
	history := [][]int{{1, 4}, {1, 4}, {2, 5}, {2, 5}}
	groups := GroupsFromWorkload(history, 6, 2)
	cube := Build(tb, Config{BlockSize: 100, Groups: groups})
	// The workload's queries must now be covered by exactly one cuboid.
	for _, dims := range [][]int{{1, 4}, {2, 5}} {
		cover, err := new(coverPlan).find(cube, dims)
		if err != nil {
			t.Fatal(err)
		}
		if len(cover) != 1 {
			t.Fatalf("query %v needs %d covering cuboids under workload grouping", dims, len(cover))
		}
	}
	// And queries still answer correctly.
	q := Query{Cond: map[int]int32{1: 2, 4: 3}, F: ranking.Sum(0, 1), K: 10}
	got, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(tb, q))
}

func hasGroup(groups [][]int, want []int) bool {
	for _, g := range groups {
		if len(g) != len(want) {
			continue
		}
		same := true
		for i := range g {
			if g[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
