package bench

import (
	"context"

	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/gridcube"
	"rankcube/internal/gridtree"
	"rankcube/internal/ranking"
	"rankcube/internal/sigcube"
	"rankcube/internal/table"
)

// Ablation experiments for the thesis' discussion-section extensions, which
// have no figures of their own: tid-list compression (§3.6.3), lossy bloom
// signatures (§4.5) and the grid partition scheme (§4.1.2). Each is kept for
// the verdict TestPaperVerdicts asserts about it. The first two report the
// structure's size as a row of its own above the query workload's.

const spaceRowNote = "the space row is the structure's size in MB; the metric above is the other row's"

// extIDList: grid-cube space and query time with and without delta
// compression of the cell tid lists.
func extIDList(ctx context.Context, cfg Config, rep *Report) {
	tb := ch3Data(cfg, 3, 2)
	plain := gridcube.Build(tb, gridcube.Config{})
	packed := gridcube.Build(tb, gridcube.Config{CompressLists: true})
	rep.Notes = []string{spaceRowNote}
	rep.add("plain", Point{X: "space MB", Value: mb(plain.SizeBytes())})
	rep.add("compressed", Point{X: "space MB", Value: mb(packed.SizeBytes())})
	queries := ch3Workload(cfg.rng(1), tb, cfg.Queries, 2, 2, 1, 10)
	sweep(ctx, rep, cfg.Queries, "row", "%s", []string{"k=10, 2 conditions"}, func(string) []method {
		return []method{gridTopK("plain", plain, queries), gridTopK("compressed", packed, queries)}
	})
}

// extBloom: exact signatures vs lossy bloom signatures — size, query time,
// and the verification overhead: the table reads (random accesses) a bloom
// cell's false positives cost, which an exact cube never makes.
func extBloom(ctx context.Context, cfg Config, rep *Report) {
	tb := ch4Data(cfg, 1_000_000)
	exact := sigcube.Build(tb, sigcube.Config{})
	lossy := sigcube.Build(tb, sigcube.Config{LossySignatures: true})
	rep.Notes = []string{spaceRowNote}
	rep.add("exact", Point{X: "space MB", Value: mb(exact.SizeBytes())})
	rep.add("bloom", Point{X: "space MB", Value: mb(lossy.SizeBytes())})
	conds := ch4Conds(cfg.rng(3), cfg.Queries)
	f := func(int) ranking.Func { return ranking.SqDist([]int{0, 1, 2}, []float64{0.4, 0.5, 0.6}) }
	sweep(ctx, rep, cfg.Queries, "row", "%s", []string{"k=20, 1 condition"}, func(string) []method {
		return []method{sigTopK("exact", exact, conds, f, 20), sigTopK("bloom", lossy, conds, f, 20)}
	})
}

// extGridPart: the §4.1.2 partition-scheme comparison — the signature cube
// over a merged-grid hierarchy vs over an R-tree, on uniform and skewed
// (correlated) data. The thesis expects the grid to suffer on skewed data
// because of dead cells while the hierarchical partition stays robust, and
// the run agrees (README, "Reproducing the thesis' figures"): the grid reads
// more blocks on both, most on the correlated data, whose cells along the
// diagonal hold many pages of tuples each.
func extGridPart(ctx context.Context, cfg Config, rep *Report) {
	dists := []table.Distribution{table.Uniform, table.Correlated}
	sweep(ctx, rep, cfg.Queries, "data", "%v", dists, func(dist table.Distribution) []method {
		tb := dataset.Synthetic(cfg.T(1_000_000), 3, 2, 50, dist, cfg.Seed)
		grid := gridtree.Build(tb, []int{0, 1}, ranking.UnitBox(2), gridtree.Config{})
		rng := cfg.rng(int64(dist))
		conds := make([]core.Cond, cfg.Queries)
		funcs := make([]ranking.Func, cfg.Queries)
		for i := range conds {
			conds[i] = core.Cond{rng.Intn(3): int32(rng.Intn(50))}
			funcs[i] = ranking.SqDist([]int{0, 1}, []float64{rng.Float64(), rng.Float64()})
		}
		f := func(qi int) ranking.Func { return funcs[qi] }
		return []method{
			sigTopK("grid-partition", sigcube.BuildOnTree(tb, grid, sigcube.Config{}), conds, f, 20),
			sigTopK("rtree-partition", sigcube.Build(tb, sigcube.Config{}), conds, f, 20),
		}
	})
}
