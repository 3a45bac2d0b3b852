package gridcube

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/ranking"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// bruteTopK computes the reference answer by scanning.
func bruteTopK(t *table.Table, q Query) []Result {
	var all []Result
	buf := make([]float64, t.Schema().R())
	for i := 0; i < t.Len(); i++ {
		tid := table.TID(i)
		if !t.Matches(tid, q.Cond) {
			continue
		}
		score := q.F.Eval(t.RankRow(tid, buf))
		if math.IsInf(score, 1) {
			continue
		}
		all = append(all, Result{TID: tid, Score: score})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score < all[b].Score
		}
		return all[a].TID < all[b].TID
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

func sameResults(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		// Scores must match; tids may differ only on exact ties.
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("result %d: score %v, want %v", i, got[i].Score, want[i].Score)
		}
	}
}

func testTable(n int, s, r, card int, seed int64) *table.Table {
	return table.Generate(table.GenSpec{T: n, S: s, R: r, Card: card, Seed: seed})
}

func TestMetaPartition(t *testing.T) {
	tb := testTable(10000, 2, 2, 5, 31)
	m := NewMeta(tb, 100)
	if m.Bins != 10 {
		t.Fatalf("Bins = %d, want 10", m.Bins)
	}
	// Every tuple lands in a valid block whose box contains it.
	buf := make([]float64, 2)
	for i := 0; i < tb.Len(); i++ {
		rank := tb.RankRow(table.TID(i), buf)
		bid := m.BlockOf(rank)
		box := m.BlockBox(bid)
		for d := 0; d < 2; d++ {
			if rank[d] < box.Lo[d]-1e-12 || rank[d] > box.Hi[d]+1e-12 {
				t.Fatalf("tuple %d dim %d value %v outside block box [%v,%v]",
					i, d, rank[d], box.Lo[d], box.Hi[d])
			}
		}
	}
}

func TestMetaEquiDepth(t *testing.T) {
	tb := testTable(20000, 1, 2, 2, 32)
	m := NewMeta(tb, 200)
	bt := NewBlockTable(tb, m)
	// Equi-depth: block occupancies should be within a few x of the target.
	max := 0
	for _, b := range bt.blocks {
		if len(b.tids) > max {
			max = len(b.tids)
		}
	}
	if max > 4*200 {
		t.Fatalf("max block occupancy %d far above target 200", max)
	}
}

func TestNeighbors(t *testing.T) {
	tb := testTable(1000, 1, 2, 2, 33)
	m := NewMeta(tb, 10) // 10 bins per dim
	if m.Bins != 10 {
		t.Fatalf("Bins = %d", m.Bins)
	}
	corner := m.BlockOfCoords([]int{0, 0})
	nbs := m.Neighbors(corner, nil)
	if len(nbs) != 3 {
		t.Fatalf("corner neighbors = %d, want 3", len(nbs))
	}
	center := m.BlockOfCoords([]int{5, 5})
	nbs = m.Neighbors(center, nil)
	if len(nbs) != 8 {
		t.Fatalf("center neighbors = %d, want 8", len(nbs))
	}
}

func TestCoordsRoundtrip(t *testing.T) {
	tb := testTable(1000, 1, 3, 2, 34)
	m := NewMeta(tb, 30)
	for bid := BID(0); int(bid) < m.NumBlocks(); bid += 7 {
		coords := m.Coords(bid, nil)
		if got := m.BlockOfCoords(coords); got != bid {
			t.Fatalf("roundtrip %d -> %v -> %d", bid, coords, got)
		}
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	tb := testTable(20000, 3, 2, 8, 35)
	cube := Build(tb, Config{BlockSize: 200})
	rng := rand.New(rand.NewSource(99))
	funcs := []ranking.Func{
		ranking.Sum(0, 1),
		ranking.Linear([]int{0, 1}, []float64{1, 3}),
		ranking.Linear([]int{0, 1}, []float64{2, -1}),
		ranking.SqDist([]int{0, 1}, []float64{0.4, 0.7}),
	}
	for trial := 0; trial < 30; trial++ {
		q := Query{
			Cond: map[int]int32{
				0: int32(rng.Intn(8)),
				1: int32(rng.Intn(8)),
			},
			F: funcs[trial%len(funcs)],
			K: 1 + rng.Intn(20),
		}
		ctr := stats.New()
		got, err := cube.TopK(q, ctr)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, bruteTopK(tb, q))
	}
}

func TestTopKSingleCondition(t *testing.T) {
	tb := testTable(10000, 3, 2, 5, 36)
	cube := Build(tb, Config{BlockSize: 150})
	q := Query{Cond: map[int]int32{2: 3}, F: ranking.Sum(0, 1), K: 15}
	got, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(tb, q))
}

func TestTopKNonConvexFunction(t *testing.T) {
	tb := testTable(8000, 2, 2, 4, 37)
	cube := Build(tb, Config{BlockSize: 100})
	// fg-style general function: no convexity declared → exhaustive path.
	f := ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
	q := Query{Cond: map[int]int32{0: 1}, F: f, K: 10}
	got, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(tb, q))
}

func TestTopKConstrainedFunction(t *testing.T) {
	tb := testTable(8000, 2, 2, 4, 41)
	cube := Build(tb, Config{BlockSize: 100})
	f := ranking.Constrained(ranking.Sum(0, 1), 1, 0.2, 0.4)
	q := Query{Cond: map[int]int32{1: 2}, F: f, K: 10}
	got, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(tb, q))
}

func TestFragmentsMatchBruteForce(t *testing.T) {
	tb := testTable(15000, 6, 2, 6, 38)
	cube := Build(tb, Config{BlockSize: 150, FragmentSize: 2})
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 20; trial++ {
		// Conditions spanning multiple fragments.
		nd := 1 + rng.Intn(3)
		cond := map[int]int32{}
		for len(cond) < nd {
			cond[rng.Intn(6)] = int32(rng.Intn(6))
		}
		q := Query{Cond: cond, F: ranking.Sum(0, 1), K: 10}
		got, err := cube.TopK(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, bruteTopK(tb, q))
	}
}

func TestCoveringCuboids(t *testing.T) {
	tb := testTable(2000, 4, 2, 4, 39)
	cube := Build(tb, Config{BlockSize: 100, FragmentSize: 2})
	// Dims {0,1} are one fragment: single covering cuboid.
	cover, err := new(coverPlan).find(cube, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != 1 {
		t.Fatalf("cover size = %d, want 1", len(cover))
	}
	// Dims {0,3} straddle fragments: two covering cuboids.
	cover, err = new(coverPlan).find(cube, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != 2 {
		t.Fatalf("cover size = %d, want 2", len(cover))
	}
}

func TestFullCubeMaterializesAllCuboids(t *testing.T) {
	tb := testTable(500, 3, 2, 3, 40)
	cube := Build(tb, Config{BlockSize: 50})
	if got := len(cube.Cuboids()); got != 7 { // 2^3 - 1
		t.Fatalf("cuboids = %d, want 7", got)
	}
	if cube.Cuboid([]int{1, 2}) == nil {
		t.Fatal("missing cuboid {1,2}")
	}
}

func TestFragmentSpaceGrowsLinearly(t *testing.T) {
	// Lemma 2: with fixed F, fragment space grows linearly in S.
	sizes := make([]int64, 0, 3)
	for _, s := range []int{4, 8, 12} {
		tb := testTable(5000, s, 2, 5, 42)
		cube := Build(tb, Config{BlockSize: 100, FragmentSize: 2})
		sizes = append(sizes, cube.SizeBytes())
	}
	// Doubling S from 4 to 8 should roughly double cuboid space (within 2x
	// slack for block-table constancy).
	growth := float64(sizes[2]-sizes[1]) / float64(sizes[1]-sizes[0])
	if growth < 0.5 || growth > 2 {
		t.Fatalf("non-linear growth: sizes %v (ratio %v)", sizes, growth)
	}
}

func TestQueryChargesIO(t *testing.T) {
	tb := testTable(10000, 2, 2, 5, 43)
	cube := Build(tb, Config{BlockSize: 100})
	ctr := stats.New()
	q := Query{Cond: map[int]int32{0: 1, 1: 2}, F: ranking.Sum(0, 1), K: 5}
	if _, err := cube.TopK(q, ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.Reads(stats.StructCube) == 0 {
		t.Fatal("no cuboid reads recorded")
	}
	if ctr.Reads(stats.StructBlockTab) == 0 {
		t.Fatal("no block-table reads recorded")
	}
}

func TestUncoverableQueryFails(t *testing.T) {
	tb := testTable(500, 4, 2, 3, 44)
	cube := Build(tb, Config{BlockSize: 50, Groups: [][]int{{0, 1}}})
	_, err := cube.TopK(Query{Cond: map[int]int32{3: 1}, F: ranking.Sum(0, 1), K: 3}, stats.New())
	if err == nil {
		t.Fatal("query over unmaterialized dimension succeeded")
	}
}

func TestKZero(t *testing.T) {
	tb := testTable(100, 1, 2, 2, 45)
	cube := Build(tb, Config{BlockSize: 50})
	res, err := cube.TopK(Query{Cond: map[int]int32{0: 0}, F: ranking.Sum(0, 1), K: 0}, stats.New())
	if err != nil || len(res) != 0 {
		t.Fatalf("K=0: res=%v err=%v", res, err)
	}
}

func TestCompressedListsMatchAndShrink(t *testing.T) {
	tb := testTable(15000, 3, 2, 6, 46)
	plain := Build(tb, Config{BlockSize: 150})
	packed := Build(tb, Config{BlockSize: 150, CompressLists: true})
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 15; trial++ {
		q := Query{
			Cond: map[int]int32{rng.Intn(3): int32(rng.Intn(6))},
			F:    ranking.Sum(0, 1),
			K:    1 + rng.Intn(15),
		}
		a, err := plain.TopK(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		b, err := packed.TopK(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, b, a)
	}
	if packed.SizeBytes() >= plain.SizeBytes() {
		t.Fatalf("compressed cube %d bytes >= plain %d bytes", packed.SizeBytes(), plain.SizeBytes())
	}
}

func TestEncodeDecodeEntriesRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		entries := make([]Entry, n)
		tid := int32(0)
		for i := range entries {
			tid += int32(rng.Intn(1000))
			entries[i] = Entry{TID: table.TID(tid), BID: BID(rng.Intn(1 << 20))}
		}
		got := decodeEntries(encodeEntries(entries), n, nil)
		if len(got) != n {
			t.Fatalf("decoded %d entries, want %d", len(got), n)
		}
		for i := range entries {
			if got[i] != entries[i] {
				t.Fatalf("entry %d: %v != %v", i, got[i], entries[i])
			}
		}
	}
}

func TestIncrementalInsertMatchesBrute(t *testing.T) {
	tb := testTable(5000, 2, 2, 5, 49)
	cube := Build(tb, Config{BlockSize: 100})
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 800; i++ {
		sel := []int32{int32(rng.Intn(5)), int32(rng.Intn(5))}
		rank := []float64{rng.Float64(), rng.Float64()}
		cube.Insert(sel, rank)
	}
	for trial := 0; trial < 10; trial++ {
		q := Query{
			Cond: map[int]int32{trial % 2: int32(rng.Intn(5))},
			F:    ranking.Sum(0, 1),
			K:    12,
		}
		got, err := cube.TopK(q, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, bruteTopK(cube.Table(), q))
	}
	if cube.PendingMaintenance() != 800 {
		t.Fatalf("PendingMaintenance = %d, want 800", cube.PendingMaintenance())
	}
}

func TestDeleteTombstones(t *testing.T) {
	tb := testTable(3000, 2, 2, 4, 51)
	cube := Build(tb, Config{BlockSize: 100})
	q := Query{Cond: map[int]int32{0: 1}, F: ranking.Sum(0, 1), K: 5}
	before, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("no results before delete")
	}
	if !cube.Delete(before[0].TID) {
		t.Fatal("delete failed")
	}
	if cube.Delete(before[0].TID) {
		t.Fatal("double delete succeeded")
	}
	after, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.TID == before[0].TID {
			t.Fatal("tombstoned tuple still returned")
		}
	}
}

func TestRepartitionFoldsMaintenance(t *testing.T) {
	tb := testTable(4000, 2, 2, 4, 52)
	cube := Build(tb, Config{BlockSize: 100})
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 500; i++ {
		cube.Insert([]int32{int32(rng.Intn(4)), int32(rng.Intn(4))},
			[]float64{rng.Float64(), rng.Float64()})
	}
	deleted := map[table.TID]bool{}
	for i := 0; i < 300; i++ {
		tid := table.TID(rng.Intn(4000))
		if cube.Delete(tid) {
			deleted[tid] = true
		}
	}
	q := Query{Cond: map[int]int32{0: 2}, F: ranking.Sum(0, 1), K: 10}
	before, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	remap := cube.Repartition()
	if cube.PendingMaintenance() != 0 {
		t.Fatalf("PendingMaintenance = %d after repartition", cube.PendingMaintenance())
	}
	if remap == nil {
		t.Fatal("expected a remap after deletions")
	}
	after, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, after, before) // same scores, fresh layout
	// Surviving tuple count must match.
	if cube.Table().Len() != 4500-len(deleted) {
		t.Fatalf("repartitioned table has %d tuples, want %d", cube.Table().Len(), 4500-len(deleted))
	}
}

func TestInsertIntoCompressedCube(t *testing.T) {
	tb := testTable(3000, 2, 2, 4, 54)
	cube := Build(tb, Config{BlockSize: 100, CompressLists: true})
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 300; i++ {
		cube.Insert([]int32{int32(rng.Intn(4)), int32(rng.Intn(4))},
			[]float64{rng.Float64(), rng.Float64()})
	}
	q := Query{Cond: map[int]int32{1: 1}, F: ranking.Sum(0, 1), K: 10}
	got, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(cube.Table(), q))
}

// TestCompressedCubeInsertAccounting pins what an insert costs a compressed
// cube on paper: a cell's page run is its stored payload plus 8 bytes per
// overflow entry, not its entry count re-priced as uncompressed. Cells here
// hold ~600 entries — under 2 KB of payload, 4.8 KB uncompressed — and gain a
// handful of overflow entries each, so every cell stays on the single page a
// cube freshly built over the same relation and partition keeps it on.
func TestCompressedCubeInsertAccounting(t *testing.T) {
	tb := testTable(20000, 2, 2, 4, 58)
	cube := Build(tb, Config{BlockSize: 600, CompressLists: true})
	before := cube.SizeBytes()
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 300; i++ {
		cube.Insert([]int32{int32(rng.Intn(4)), int32(rng.Intn(4))},
			[]float64{rng.Float64(), rng.Float64()})
	}
	rowBytes := int64(4 + 8*cube.meta.R)
	if got, want := cube.SizeBytes()-before, 300*(rowBytes+8*int64(len(cube.cuboids))); got != want {
		t.Fatalf("300 inserts grew the cube by %d bytes, want %d", got, want)
	}

	fresh := &Cube{t: cube.t, meta: cube.meta, blocks: NewBlockTable(cube.t, cube.meta),
		cuboids: make(map[string]*Cuboid), cfg: cube.cfg}
	for _, cb := range cube.Cuboids() {
		fresh.buildCuboid(cb.dims)
	}
	for trial := 0; trial < 20; trial++ {
		q := Query{Cond: map[int]int32{trial % 2: int32(rng.Intn(4))}, F: ranking.Sum(0, 1), K: 1 + rng.Intn(50)}
		gotCtr, wantCtr := stats.New(), stats.New()
		got, err := cube.TopK(q, gotCtr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.TopK(q, wantCtr)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want)
		if g, w := gotCtr.Reads(stats.StructCube), wantCtr.Reads(stats.StructCube); g != w {
			t.Fatalf("query %v: %d cuboid reads after inserts, %d on a fresh build", q.Cond, g, w)
		}
	}
}

func TestTopKEmptyCondition(t *testing.T) {
	tb := testTable(8000, 2, 2, 4, 57)
	cube := Build(tb, Config{BlockSize: 100})
	q := Query{Cond: map[int]int32{}, F: ranking.Sum(0, 1), K: 12}
	got, err := cube.TopK(q, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, bruteTopK(tb, q))
	if len(got) != 12 {
		t.Fatalf("unconditioned query returned %d results", len(got))
	}
}
