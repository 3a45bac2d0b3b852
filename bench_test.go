// Benchmarks: one testing.B target per table/figure of the thesis'
// evaluation, named after the figure id the harness lists it under
// (internal/bench.IDs; TestHarnessRegistryComplete pins the list). Each
// benchmark exercises the figure's query configuration against shared
// fixtures of moderate size; the full parameter sweeps with all competitor
// series are produced by cmd/rankbench (`rankbench -all`).
package rankcube_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rankcube"

	"rankcube/internal/baselines"
	"rankcube/internal/bench"
	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/gridcube"
	"rankcube/internal/hindex"
	"rankcube/internal/indexmerge"
	"rankcube/internal/joinquery"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/skyline"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

const benchRows = 100_000

// ---------------------------------------------------------------------------
// Shared fixtures (built once)
// ---------------------------------------------------------------------------

var (
	gridOnce sync.Once
	gridTb   *table.Table
	gridCube *gridcube.Cube
	gridFrag *gridcube.Cube
	gridBL   *baselines.BooleanFirst
	gridRM   *baselines.RankMapping
)

func gridFixture() {
	gridOnce.Do(func() {
		gridTb = dataset.Synthetic(benchRows, 3, 2, 20, table.Uniform, 1)
		gridCube = gridcube.Build(gridTb, gridcube.Config{})
		h := baselines.NewHeapFile(gridTb, 0)
		gridBL = baselines.NewBooleanFirst(h)
		gridRM = baselines.NewRankMapping(gridTb, 0)
		fragTb := dataset.Synthetic(benchRows, 12, 2, 20, table.Uniform, 1)
		gridFrag = gridcube.Build(fragTb, gridcube.Config{FragmentSize: 2})
	})
}

var (
	sigOnce  sync.Once
	sigTb    *table.Table
	sigCube  *sigcube.Cube
	sigRF    *baselines.RankingFirst
	sigBool  *baselines.BooleanFirst
	sigHeap  *baselines.HeapFile
	skylEng  *skyline.Engine
	sigCond  core.Cond
	sigFuncs map[string]ranking.Func
)

func sigFixture() {
	sigOnce.Do(func() {
		sigTb = dataset.Synthetic(benchRows, 3, 3, 100, table.Uniform, 2)
		sigCube = sigcube.Build(sigTb, sigcube.Config{})
		sigHeap = baselines.NewHeapFile(sigTb, 0)
		sigBool = baselines.NewBooleanFirst(sigHeap)
		sigRF = baselines.NewRankingFirst(sigHeap, sigCube.Tree().(*rtree.Tree))
		skylEng = skyline.NewEngine(sigCube)
		sigCond = core.Cond{0: 7}
		sigFuncs = map[string]ranking.Func{
			"linear":   ranking.Linear([]int{0, 1, 2}, []float64{1, 2, 0.5}),
			"distance": ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.6, 0.9}),
			"general": ranking.General(ranking.Sqr(ranking.Sub(
				ranking.Scale(2, ranking.Var(0)),
				ranking.Add(ranking.Var(1), ranking.Var(2))))),
		}
	})
}

var (
	mergeOnce sync.Once
	mergeTb   *table.Table
	mergeIdx  []hindex.Index
	mergeJS   *indexmerge.JoinSignature
	merge3Idx []hindex.Index
	merge3JS  *indexmerge.JoinSignature
	merge3Pp  *indexmerge.PairwisePruner
)

func mergeFixture() {
	mergeOnce.Do(func() {
		mergeTb = dataset.Synthetic(benchRows, 1, 3, 2, table.Uniform, 3)
		dom := ranking.UnitBox(3)
		mergeIdx = []hindex.Index{
			btree.Build(mergeTb, 0, dom, btree.Config{}),
			btree.Build(mergeTb, 1, dom, btree.Config{}),
		}
		var err error
		mergeJS, err = indexmerge.BuildJoinSignature(mergeIdx, mergeTb.Len(), indexmerge.JoinSigConfig{})
		if err != nil {
			panic(err)
		}
		merge3Idx = []hindex.Index{
			mergeIdx[0], mergeIdx[1],
			btree.Build(mergeTb, 2, dom, btree.Config{}),
		}
		merge3JS, err = indexmerge.BuildJoinSignature(merge3Idx, mergeTb.Len(), indexmerge.JoinSigConfig{})
		if err != nil {
			panic(err)
		}
		pairs := map[[2]int]*indexmerge.JoinSignature{}
		for _, pr := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			js, err := indexmerge.BuildJoinSignature(
				[]hindex.Index{merge3Idx[pr[0]], merge3Idx[pr[1]]}, mergeTb.Len(), indexmerge.JoinSigConfig{})
			if err != nil {
				panic(err)
			}
			pairs[pr] = js
		}
		merge3Pp = &indexmerge.PairwisePruner{Pairs: pairs}
	})
}

var (
	joinOnce sync.Once
	joinR1   *joinquery.Relation
	joinR2   *joinquery.Relation
)

func joinFixture() {
	joinOnce.Do(func() {
		t1, t2, k1, k2 := dataset.JoinPair(benchRows/2, 2, 2, 10, 1000, 4)
		c1 := sigcube.Build(t1, sigcube.Config{})
		c2 := sigcube.Build(t2, sigcube.Config{})
		joinR1 = joinquery.NewRelation("R1", t1, c1, k1, 1000)
		joinR2 = joinquery.NewRelation("R2", t2, c2, k2, 1000)
	})
}

// mergeFs is the fs query of §5.4.2 over the two-index fixture.
func mergeFs(i int) ranking.Func {
	t := float64(i%10) / 10
	return ranking.SqDist([]int{0, 1}, []float64{t, 1 - t})
}

func mergeFg() ranking.Func {
	return ranking.General(ranking.Sqr(ranking.Sub(ranking.Var(0), ranking.Sqr(ranking.Var(1)))))
}

func mergeFc(i int) ranking.Func {
	lo := float64(i%7) / 10
	return ranking.Constrained(ranking.Sum(0, 1), 1, lo, lo+0.2)
}

// ---------------------------------------------------------------------------
// Chapter 3 — grid ranking cube
// ---------------------------------------------------------------------------

// gridQuery runs one grid query b.N times and reports its cuboid and base
// block table reads per query.
func gridQuery(b *testing.B, cube *gridcube.Cube, cond core.Cond, f ranking.Func, k int) {
	b.Helper()
	total := stats.New()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		if _, err := cube.TopK(gridcube.Query{Cond: cond, F: f, K: k}, ctr); err != nil {
			b.Fatal(err)
		}
		total.Merge(ctr)
	}
	b.ReportMetric(float64(total.Reads(stats.StructCube))/float64(b.N), "cubereads/op")
	b.ReportMetric(float64(total.Reads(stats.StructBlockTab))/float64(b.N), "blocktabreads/op")
}

func BenchmarkFig3_04_RankingCube_K10(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{0: 1, 1: 2}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_04_RankMapping_K10(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridRM.TopK(core.Cond{0: 1, 1: 2}, ranking.Sum(0, 1), 10, stats.New())
	}
}

func BenchmarkFig3_04_Baseline_K10(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridBL.TopK(core.Cond{0: 1, 1: 2}, ranking.Sum(0, 1), 10, stats.New())
	}
}

func BenchmarkFig3_05_Skewness(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{0: 1, 1: 2}, ranking.Linear([]int{0, 1}, []float64{1, 5}), 10)
}

func BenchmarkFig3_06_PartialRankingDims(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{0: 1}, ranking.Sum(0), 10)
}

func BenchmarkFig3_07_DatabaseSize(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{0: 3, 2: 4}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_08_Cardinality(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{1: 19}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_09_SelectionConditions(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{0: 1, 1: 2, 2: 3}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_10_BlockSize(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridCube, core.Cond{0: 5}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_11_FragmentSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := dataset.Synthetic(20_000, 6, 2, 20, table.Uniform, 1)
		cube := gridcube.Build(tb, gridcube.Config{FragmentSize: 2})
		if cube.SizeBytes() == 0 {
			b.Fatal("empty cube")
		}
	}
}

func BenchmarkFig3_12_CoveringFragments(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	// Conditions spanning three 2-dim fragments.
	gridQuery(b, gridFrag, core.Cond{0: 1, 2: 2, 4: 3}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_13_FragmentSize(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridFrag, core.Cond{0: 1, 1: 2, 2: 3}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_14_HighDimensions(b *testing.B) {
	gridFixture()
	b.ResetTimer()
	gridQuery(b, gridFrag, core.Cond{3: 1, 7: 2, 11: 3}, ranking.Sum(0, 1), 10)
}

func BenchmarkFig3_15_ForestCover(b *testing.B) {
	var once sync.Once
	var cube *gridcube.Cube
	once.Do(func() {
		tb := dataset.ForestCover(50_000, 1)
		cube = gridcube.Build(tb, gridcube.Config{FragmentSize: 3})
	})
	b.ResetTimer()
	gridQuery(b, cube, core.Cond{4: 1, 5: 1, 6: 0}, ranking.Sum(0, 1, 2), 10)
}

// ---------------------------------------------------------------------------
// Chapter 4 — signature ranking cube
// ---------------------------------------------------------------------------

func BenchmarkFig4_08_Construction(b *testing.B) {
	tb := dataset.Synthetic(20_000, 3, 3, 100, table.Uniform, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigcube.Build(tb, sigcube.Config{})
	}
}

func BenchmarkFig4_09_MaterializedSize(b *testing.B) {
	sigFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sigCube.SizeBytes() == 0 {
			b.Fatal("empty cube")
		}
	}
}

func BenchmarkFig4_10_Compression(b *testing.B) {
	tb := dataset.Synthetic(20_000, 3, 3, 100, table.Uniform, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigcube.Build(tb, sigcube.Config{BaselineCoding: i%2 == 1})
	}
}

func BenchmarkFig4_11_IncrementalInsert(b *testing.B) {
	tb := dataset.Synthetic(20_000, 3, 3, 100, table.Uniform, 2)
	cube := sigcube.Build(tb, sigcube.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube.Insert([]int32{int32(i % 3), int32(i % 5), int32(i % 7)},
			[]float64{float64(i%97) / 97, float64(i%89) / 89, float64(i%83) / 83}, stats.New())
	}
}

func BenchmarkFig4_12_Signature_K10(b *testing.B) {
	sigFixture()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		if _, err := sigCube.TopK(sigCond, sigFuncs["linear"], 10, ctr); err != nil {
			b.Fatal(err)
		}
		total.Merge(ctr)
	}
	b.ReportMetric(float64(total.TotalReads())/float64(b.N), "reads/op")
}

func BenchmarkFig4_12_Ranking_K10(b *testing.B) {
	sigFixture()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		sigRF.TopK(sigCond, sigFuncs["linear"], 10, ctr)
		total.Merge(ctr)
	}
	b.ReportMetric(float64(total.TotalReads())/float64(b.N), "reads/op")
}

func BenchmarkFig4_12_Boolean_K10(b *testing.B) {
	sigFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigBool.TopK(sigCond, sigFuncs["linear"], 10, stats.New())
	}
}

func BenchmarkFig4_13_GeneralFunction(b *testing.B) {
	sigFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigCube.TopK(sigCond, sigFuncs["general"], 100, stats.New()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Chapter 5 — index merge
// ---------------------------------------------------------------------------

func benchMerge(b *testing.B, idx []hindex.Index, f func(int) ranking.Func, k int, opts indexmerge.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := indexmerge.TopK(idx, f(i), k, opts, stats.New()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_1_Basic(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, func(int) ranking.Func { return mergeFg() }, 100,
		indexmerge.Options{Strategy: indexmerge.StrategyBL})
}

func BenchmarkTable5_1_Improved(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, func(int) ranking.Func { return mergeFg() }, 100,
		indexmerge.Options{Pruner: mergeJS})
}

func BenchmarkFig5_07_Fs_PE(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, mergeFs, 100, indexmerge.Options{})
}

func BenchmarkFig5_07_Fs_PESIG(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, mergeFs, 100, indexmerge.Options{Pruner: mergeJS})
}

func BenchmarkFig5_08_Fg_PE(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, func(int) ranking.Func { return mergeFg() }, 100, indexmerge.Options{})
}

func BenchmarkFig5_08_Fg_PESIG(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, func(int) ranking.Func { return mergeFg() }, 100,
		indexmerge.Options{Pruner: mergeJS})
}

func BenchmarkFig5_09_Fc_PE(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, mergeFc, 100, indexmerge.Options{})
}

func BenchmarkFig5_10_DiskAccess(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, mergeFs, 100, indexmerge.Options{Pruner: mergeJS})
}

func BenchmarkFig5_11_StatesGenerated(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, func(int) ranking.Func { return mergeFg() }, 100, indexmerge.Options{})
}

func BenchmarkFig5_12_PeakHeap(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, mergeFc, 100, indexmerge.Options{})
}

func BenchmarkFig5_13_RealData(b *testing.B) {
	var once sync.Once
	var idx []hindex.Index
	once.Do(func() {
		tb := dataset.ForestCoverWide(50_000, 1)
		dom := ranking.NewBox(tb.RankBounds())
		idx = []hindex.Index{
			rtree.Bulk(tb, []int{0, 1, 2}, dom, rtree.Config{}),
			rtree.Bulk(tb, []int{3, 4, 5}, dom, rtree.Config{}),
		}
	})
	f := ranking.SqDist([]int{0, 1, 2, 3, 4, 5}, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	b.ResetTimer()
	benchMerge(b, idx, func(int) ranking.Func { return f }, 100, indexmerge.Options{})
}

func BenchmarkFig5_14_RTreeMerge(b *testing.B) {
	var once sync.Once
	var idx []hindex.Index
	once.Do(func() {
		tb := dataset.Synthetic(50_000, 1, 4, 2, table.Uniform, 3)
		dom := ranking.UnitBox(4)
		idx = []hindex.Index{
			rtree.Bulk(tb, []int{0, 1}, dom, rtree.Config{}),
			rtree.Bulk(tb, []int{2, 3}, dom, rtree.Config{}),
		}
	})
	f := ranking.SqDist([]int{0, 1, 2, 3}, []float64{0.2, 0.4, 0.6, 0.8})
	b.ResetTimer()
	benchMerge(b, idx, func(int) ranking.Func { return f }, 100, indexmerge.Options{})
}

func BenchmarkFig5_15_ThreeWay_PE(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	f := ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.5, 0.7})
	benchMerge(b, merge3Idx, func(int) ranking.Func { return f }, 50, indexmerge.Options{})
}

func BenchmarkFig5_16_ThreeWay_2dSIG(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	f := ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.5, 0.7})
	benchMerge(b, merge3Idx, func(int) ranking.Func { return f }, 50, indexmerge.Options{Pruner: merge3Pp})
}

func BenchmarkFig5_17_ThreeWay_3dSIG(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	f := ranking.SqDist([]int{0, 1, 2}, []float64{0.3, 0.5, 0.7})
	benchMerge(b, merge3Idx, func(int) ranking.Func { return f }, 50, indexmerge.Options{Pruner: merge3JS})
}

func BenchmarkFig5_18_PartialAttrs(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	f := ranking.SqDist([]int{0}, []float64{0.4})
	benchMerge(b, mergeIdx, func(int) ranking.Func { return f }, 100, indexmerge.Options{})
}

func BenchmarkFig5_19_NodeSize(b *testing.B) {
	tb := dataset.Synthetic(50_000, 1, 2, 2, table.Uniform, 3)
	dom := ranking.UnitBox(2)
	idx := []hindex.Index{
		btree.Build(tb, 0, dom, btree.Config{PageSize: 1024}),
		btree.Build(tb, 1, dom, btree.Config{PageSize: 1024}),
	}
	b.ResetTimer()
	benchMerge(b, idx, mergeFs, 100, indexmerge.Options{})
}

func BenchmarkFig5_20_DatabaseSize(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	benchMerge(b, mergeIdx, mergeFs, 100, indexmerge.Options{Pruner: mergeJS})
}

func BenchmarkFig5_21_JoinSigConstruction(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := indexmerge.BuildJoinSignature(mergeIdx, mergeTb.Len(), indexmerge.JoinSigConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_22_JoinSigSize(b *testing.B) {
	mergeFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mergeJS.SizeBytes() == 0 {
			b.Fatal("empty join signature")
		}
	}
}

// ---------------------------------------------------------------------------
// Chapter 6 — SPJR rank joins
// ---------------------------------------------------------------------------

func benchJoin(b *testing.B, k int) {
	b.Helper()
	joinFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := joinquery.Query{
			Parts: []joinquery.Part{
				{Rel: joinR1, Cond: core.Cond{0: int32(i % 10)}, F: ranking.Sum(0, 1)},
				{Rel: joinR2, Cond: core.Cond{1: int32(i % 10)}, F: ranking.Sum(0, 1)},
			},
			K: k,
		}
		if _, err := joinquery.Execute(q, joinquery.Options{}, stats.New()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_03_JoinCardinality(b *testing.B) { benchJoin(b, 10) }
func BenchmarkFig6_04_JoinDatabaseSize(b *testing.B) {
	benchJoin(b, 20)
}

// ---------------------------------------------------------------------------
// Chapter 7 — skylines
// ---------------------------------------------------------------------------

// reportSearch adds a search's I/O and heap counters, summed over the run in
// total, to a benchmark's row: time alone does not say whether a change moved
// work or block reads.
func reportSearch(b *testing.B, total *stats.Counters) {
	b.Helper()
	b.ReportMetric(float64(total.TotalReads())/float64(b.N), "reads/op")
	b.ReportMetric(float64(total.StatesGenerated)/float64(b.N), "states-generated/op")
	b.ReportMetric(float64(total.PeakHeap), "peak-heap")
}

func benchSkyline(b *testing.B, q skyline.Query) {
	b.Helper()
	sigFixture()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		if _, _, err := skylEng.Skyline(q, ctr); err != nil {
			b.Fatal(err)
		}
		total.Merge(ctr)
	}
	reportSearch(b, total)
}

func BenchmarkFig7_03_SkylineTime(b *testing.B) {
	benchSkyline(b, skyline.Query{Cond: core.Cond{0: 7}, Dims: []int{0, 1}})
}

func BenchmarkFig7_04_SkylineDisk(b *testing.B) {
	benchSkyline(b, skyline.Query{Cond: core.Cond{1: 3}, Dims: []int{0, 1}})
}

func BenchmarkFig7_05_SkylineHeap(b *testing.B) {
	benchSkyline(b, skyline.Query{Cond: core.Cond{2: 5}, Dims: []int{0, 1}})
}

func BenchmarkFig7_06_Cardinality(b *testing.B) {
	benchSkyline(b, skyline.Query{Cond: core.Cond{0: 99}, Dims: []int{0, 1}})
}

func BenchmarkFig7_07_Distribution(b *testing.B) {
	var once sync.Once
	var eng *skyline.Engine
	once.Do(func() {
		tb := dataset.Synthetic(50_000, 3, 3, 100, table.AntiCorrelated, 5)
		eng = skyline.NewEngine(sigcube.Build(tb, sigcube.Config{}))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Skyline(skyline.Query{Cond: core.Cond{0: 7}, Dims: []int{0, 1}}, stats.New()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_08_PreferenceDims(b *testing.B) {
	benchSkyline(b, skyline.Query{Cond: core.Cond{0: 7}, Dims: []int{0, 1, 2}})
}

func BenchmarkFig7_09_Fanout(b *testing.B) {
	var once sync.Once
	var eng *skyline.Engine
	once.Do(func() {
		tb := dataset.Synthetic(50_000, 3, 3, 100, table.Uniform, 6)
		eng = skyline.NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 64}}))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Skyline(skyline.Query{Cond: core.Cond{0: 7}, Dims: []int{0, 1}}, stats.New()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_10_Hardness(b *testing.B) {
	BenchmarkFig7_07_Distribution(b)
}

func BenchmarkFig7_11_BooleanPredicates(b *testing.B) {
	benchSkyline(b, skyline.Query{Cond: core.Cond{0: 7, 1: 3, 2: 9}, Dims: []int{0, 1}})
}

func BenchmarkFig7_12_SignatureLoading(b *testing.B) {
	sigFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		tester, any, err := sigCube.TesterFor(core.Cond{0: 7, 1: 3}, ctr)
		if err != nil {
			b.Fatal(err)
		}
		if !any {
			continue
		}
		tester.Test([]int{1, 1, 1})
	}
}

func BenchmarkFig7_13_DrillDown(b *testing.B) {
	sigFixture()
	_, snap, err := skylEng.Skyline(skyline.Query{Cond: core.Cond{0: 7}, Dims: []int{0, 1}}, stats.New())
	if err != nil {
		b.Fatal(err)
	}
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		if _, _, err := skylEng.DrillDown(snap, core.Cond{1: int32(i % 100)}, ctr); err != nil {
			b.Fatal(err)
		}
		total.Merge(ctr)
	}
	reportSearch(b, total)
}

func BenchmarkFig7_14_RollUp(b *testing.B) {
	sigFixture()
	_, snap, err := skylEng.Skyline(skyline.Query{Cond: core.Cond{0: 7, 1: 3}, Dims: []int{0, 1}}, stats.New())
	if err != nil {
		b.Fatal(err)
	}
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := stats.New()
		if _, _, err := skylEng.RollUp(snap, []int{1}, ctr); err != nil {
			b.Fatal(err)
		}
		total.Merge(ctr)
	}
	reportSearch(b, total)
}

// ---------------------------------------------------------------------------
// Public API smoke benchmark + harness self-check
// ---------------------------------------------------------------------------

func BenchmarkPublicAPI_SignatureTopK(b *testing.B) {
	rel := rankcube.GenerateRelation(20_000, 3, 2, 10, rankcube.Uniform, 9)
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Query(ctx, rankcube.Cond{0: 1}, rankcube.Sum(0, 1), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI_SignatureChurn is the write path through the public
// boundary: inserts and deletes alternate on a 50k-row cube with Zipf-skewed
// selection values (big cells, many partials each). Beside time and
// allocations it reports the partial pages maintenance read per write and the
// pages the store ends with — a write that leaked or doubled pages shows there.
func BenchmarkPublicAPI_SignatureChurn(b *testing.B) {
	const rows = 50_000
	rel := table.Generate(table.GenSpec{T: rows, S: 3, R: 2, Card: 10, SelZipf: 1.1, Seed: 9})
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	ctx := context.Background()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := rankcube.NewMetrics()
		var err error
		if i%2 == 0 {
			t := rankcube.TID(i / 2 * 7919 % rows) // 7919 is prime to rows: no tuple comes up twice
			_, err = cube.InsertTuple(ctx, []int32{rel.Sel(t, 0), rel.Sel(t, 1), rel.Sel(t, 2)},
				[]float64{float64(i%97) / 97, float64(i%89) / 89}, rankcube.WithMetrics(m))
		} else {
			_, err = cube.DeleteTuple(ctx, rankcube.TID(i/2*7919%rows), rankcube.WithMetrics(m))
		}
		if err != nil {
			b.Fatal(err)
		}
		total.Merge(m)
	}
	b.ReportMetric(float64(total.Reads(stats.StructSignature))/float64(b.N), "sigreads/op")
	b.ReportMetric(float64(cube.Health()[0].Pages), "sigpages")
}

// BenchmarkPublicAPI_GridTopK is the grid cube's read path through the public
// boundary under the repo benchmark's grid-serve shape: a 200k-row relation
// with Zipf-skewed selection values of cardinality 20, predicates over one to
// three dimensions with Zipf-drawn values, and the 50/40/10 mix of linear,
// squared-distance and general (no declared convexity → exhaustive search)
// functions. Beside time and allocations it reports the cuboid and base block
// table reads per query. A change to the search kernel must not move them; a
// change to what a step fetches — since page-granular fetch, the pages that
// hold the rows a step needs — must say by how much, in its snapshot.
func BenchmarkPublicAPI_GridTopK(b *testing.B) {
	rel := table.Generate(table.GenSpec{T: 200_000, S: 3, R: 2, Card: 20, SelZipf: 1.2, Seed: 9})
	cube := rankcube.BuildGridCube(rel, rankcube.GridOptions{})
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.2, 1, 19)
	type query struct {
		cond rankcube.Cond
		f    rankcube.Func
		k    int
	}
	queries := make([]query, 1000)
	for i := range queries {
		q := query{cond: rankcube.Cond{}, k: []int{1, 10, 10, 10, 100}[rng.Intn(5)]}
		for _, d := range rng.Perm(3)[:1+rng.Intn(3)] {
			q.cond[d] = int32(zipf.Uint64())
		}
		p := []float64{rng.Float64(), rng.Float64()}
		switch kind := i % 10; {
		case kind < 5:
			q.f = rankcube.Linear([]int{0, 1}, p)
		case kind < 9:
			q.f = rankcube.SqDist([]int{0, 1}, p)
		default:
			q.f = rankcube.General(rankcube.Sqr(rankcube.Sub(rankcube.Scale(0.5+p[0], rankcube.Var(0)), rankcube.Var(1))))
		}
		queries[i] = q
	}
	ctx := context.Background()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		m := rankcube.NewMetrics()
		if _, err := cube.Query(ctx, q.cond, q.f, q.k, rankcube.WithMetrics(m)); err != nil {
			b.Fatal(err)
		}
		total.Merge(m)
	}
	b.ReportMetric(float64(total.Reads(stats.StructCube))/float64(b.N), "cubereads/op")
	b.ReportMetric(float64(total.Reads(stats.StructBlockTab))/float64(b.N), "blocktabreads/op")
}

// BenchmarkPublicAPI_SigConjunctionTopK is the request the signature search's
// look-ahead is for, through the public boundary under the repo benchmark's
// sig-topk shape: 200k rows, three Zipf-1.2 selection dimensions of
// cardinality 100, three uniform ranking dimensions, and top-10 queries whose
// predicate names two dimensions with Zipf-drawn values — a conjunction
// assembled online from atomic cuboids. Beside time and allocations it
// reports block reads per query, in total and for the partition and the
// signatures apart, and the states generated.
func BenchmarkPublicAPI_SigConjunctionTopK(b *testing.B) {
	rel := table.Generate(table.GenSpec{T: 200_000, S: 3, R: 3, Card: 100, SelZipf: 1.2, Seed: 9})
	cube := rankcube.BuildSignatureCube(rel, rankcube.SigOptions{})
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.2, 1, 99)
	type query struct {
		cond rankcube.Cond
		f    rankcube.Func
	}
	queries := make([]query, 1000)
	for i := range queries {
		q := query{cond: rankcube.Cond{}}
		for _, d := range rng.Perm(3)[:2] {
			q.cond[d] = int32(zipf.Uint64())
		}
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%2 == 0 {
			q.f = rankcube.Linear([]int{0, 1, 2}, p)
		} else {
			q.f = rankcube.SqDist([]int{0, 1, 2}, p)
		}
		queries[i] = q
	}
	ctx := context.Background()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		m := rankcube.NewMetrics()
		if _, err := cube.Query(ctx, q.cond, q.f, 10, rankcube.WithMetrics(m)); err != nil {
			b.Fatal(err)
		}
		total.Merge(m)
	}
	b.ReportMetric(float64(total.TotalReads())/float64(b.N), "reads/op")
	b.ReportMetric(float64(total.Reads(stats.StructRTree))/float64(b.N), "rtree-reads/op")
	b.ReportMetric(float64(total.Reads(stats.StructSignature))/float64(b.N), "signature-reads/op")
	b.ReportMetric(float64(total.StatesGenerated)/float64(b.N), "states-generated/op")
}

// BenchmarkPublicAPI_MergeTopK is the index-merge request of the repo
// benchmark's analytic-mix sessions through the public boundary: 100k
// anti-correlated rows over three ranking dimensions, B+-trees on the first
// two, the top 100 under squared distance to a random target. Beside time and
// allocations it reports block reads and states generated per query and the
// peak heap, which a change to the merge loop must not move.
func BenchmarkPublicAPI_MergeTopK(b *testing.B) {
	rel := rankcube.GenerateRelation(100_000, 3, 3, 10, rankcube.AntiCorrelated, 9)
	indices := []rankcube.Index{rankcube.BuildBTree(rel, 0), rankcube.BuildBTree(rel, 1)}
	rng := rand.New(rand.NewSource(9))
	funcs := make([]rankcube.Func, 1000)
	for i := range funcs {
		funcs[i] = rankcube.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
	}
	ctx := context.Background()
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := rankcube.NewMetrics()
		if _, err := rankcube.MergeQuery(ctx, rel, indices, funcs[i%len(funcs)], 100, rankcube.MergeOptions{}, rankcube.WithMetrics(m)); err != nil {
			b.Fatal(err)
		}
		total.Merge(m)
	}
	reportSearch(b, total)
}

// BenchmarkPublicAPI_SkylineSession is one OLAP navigation through the
// canonical entry points: a skyline over an anti-correlated relation, a
// drill-down that re-constructs its candidate heap, and a roll-up seeded with
// the drill-down's skyline.
func BenchmarkPublicAPI_SkylineSession(b *testing.B) {
	rel := rankcube.GenerateRelation(50_000, 3, 3, 10, rankcube.AntiCorrelated, 9)
	eng := rankcube.NewSkylineEngine(rankcube.BuildSignatureCube(rel, rankcube.SigOptions{}))
	ctx := context.Background()
	dims := []int{0, 1, 2}
	total := stats.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := rankcube.NewMetrics()
		_, snap, err := eng.Query(ctx, rankcube.Cond{0: int32(i % 10)}, dims, nil, rankcube.WithMetrics(m))
		if err != nil {
			b.Fatal(err)
		}
		if _, snap, err = eng.DrillDownQuery(ctx, snap, rankcube.Cond{1: int32(i / 10 % 10)}, rankcube.WithMetrics(m)); err != nil {
			b.Fatal(err)
		}
		if _, _, err = eng.RollUpQuery(ctx, snap, []int{0}, rankcube.WithMetrics(m)); err != nil {
			b.Fatal(err)
		}
		total.Merge(m)
	}
	reportSearch(b, total)
}

// TestHarnessRegistryComplete pins the experiment inventory: every thesis
// table/figure id is listed, in thesis order, then the ablations.
func TestHarnessRegistryComplete(t *testing.T) {
	want := strings.Fields(`
		fig3.4 fig3.5 fig3.6 fig3.7 fig3.8 fig3.9 fig3.10 fig3.11 fig3.12 fig3.13 fig3.14 fig3.15
		fig4.8 fig4.9 fig4.10 fig4.11 fig4.12 fig4.13
		tbl5.1 fig5.7 fig5.8 fig5.9 fig5.10 fig5.11 fig5.12 fig5.13 fig5.14 fig5.15 fig5.16 fig5.17
		fig5.18 fig5.19 fig5.20 fig5.21 fig5.22
		fig6.3 fig6.4
		fig7.3 fig7.4 fig7.5 fig7.6 fig7.7 fig7.8 fig7.9 fig7.10 fig7.11 fig7.12 fig7.13 fig7.14
		ext.idlist ext.bloom ext.gridpart`)
	if got := bench.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("inventory is\n%v\nwant\n%v", got, want)
	}
}
