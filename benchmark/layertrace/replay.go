package main

import (
	"context"
	"fmt"
	"time"

	"rankcube/benchmark/workload"
	"rankcube/internal/baselines"
	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/gridcube"
	"rankcube/internal/hindex"
	"rankcube/internal/indexmerge"
	"rankcube/internal/joinquery"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/signature"
	"rankcube/internal/skyline"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// twin is a workload's structures built a second time, from a second copy of
// the generated relations, through the internal constructors with the same
// configuration the public ones pass — so the traced pass can hand the
// engines wrapped testers, trees and functions. Builds are deterministic,
// which the comparison with the untraced pass asserts.
type twin struct {
	tr   *tracer
	data *workload.Data

	sig  *sigcube.Cube // sig-topk, sig-churn, analytic-mix
	tree *rtree.Tree   // sig's partition tree, unwrapped
	grid *gridcube.Cube

	sky     *skyline.Engine
	btrees  []hindex.Index
	joinRel [2]*joinquery.Relation

	// engines holds, per top-level layer, what its requests counted; all is
	// the same over every request of the pass, reads and writes.
	engines map[string]*engineStat
	all     engineStat
	writes  int
	// appended sums the signature store's growth over the writes.
	appended int64
	kept     []workload.Answer
}

// engineStat sums the requests one engine answered in the traced pass.
type engineStat struct {
	requests int
	// results counts tuples returned (top-k engines only).
	results int
	ctr     *stats.Counters
}

// count folds one finished request into its engine's totals and the pass's.
func (tw *twin) count(layer string, ctr *stats.Counters, results int) {
	if tw.tr.mute {
		return
	}
	e := tw.engines[layer]
	if e == nil {
		e = &engineStat{ctr: stats.New()}
		tw.engines[layer] = e
	}
	for _, st := range []*engineStat{e, &tw.all} {
		st.requests++
		st.results += results
		st.ctr.Merge(ctr)
	}
}

// engine returns the combined totals of the named top-level layers.
func (tw *twin) engine(layers ...string) engineStat {
	out := engineStat{ctr: stats.New()}
	for _, l := range layers {
		if e := tw.engines[l]; e != nil {
			out.requests += e.requests
			out.results += e.results
			out.ctr.Merge(e.ctr)
		}
	}
	return out
}

// relationDomain is the box the public constructors compute for a relation.
func relationDomain(rel *table.Table) ranking.Box {
	r := rel.Schema().R()
	lo, hi := make([]float64, r), make([]float64, r)
	for d := 0; d < r; d++ {
		lo[d], hi[d] = rel.RankDomain(d)
		if hi[d] <= lo[d] {
			hi[d] = lo[d] + 1
		}
	}
	return ranking.NewBox(lo, hi)
}

func allDims(rel *table.Table) []int {
	dims := make([]int, rel.Schema().R())
	for i := range dims {
		dims[i] = i
	}
	return dims
}

// buildSig is BuildSignatureCube with a timed partition tree.
func buildSig(rel *table.Table, tr *tracer) (*sigcube.Cube, *rtree.Tree) {
	rt := rtree.Bulk(rel, allDims(rel), relationDomain(rel), rtree.Config{})
	return sigcube.BuildOnTree(rel, timedRTree{rt, tr}, sigcube.Config{}), rt
}

func buildTwin(engine workload.Engine, d *workload.Data, tr *tracer) *twin {
	tw := &twin{tr: tr, data: d, engines: make(map[string]*engineStat), all: engineStat{ctr: stats.New()}}
	switch engine {
	case workload.GridEngine:
		tw.grid = gridcube.Build(d.Rel, gridcube.Config{})
	case workload.AnalyticEngines:
		tw.sig, tw.tree = buildSig(d.Rel, tr)
		tw.sky = skyline.NewEngine(tw.sig)
		for _, dim := range workload.MergeDims {
			bt := btree.Build(d.Rel, dim, relationDomain(d.Rel), btree.Config{})
			tw.btrees = append(tw.btrees, timedBTree{bt, tr})
		}
		for i, side := range d.Join {
			cube, _ := buildSig(side.Rel, tr)
			tw.joinRel[i] = joinquery.NewRelation(string(rune('A'+i)), side.Rel, cube, side.Keys, workload.JoinKeys)
		}
	default:
		tw.sig, tw.tree = buildSig(d.Rel, tr)
	}
	return tw
}

// request runs fn as one traced read request: a top-level span of layer,
// fresh counters folded into the totals, the answer kept for comparison with
// the untraced pass. fn returns the answer's digest and size.
func (tw *twin) request(op int, layer string, fn func(ctr *stats.Counters) (digest uint64, results int)) {
	ctr := stats.New()
	var digest uint64
	var results int
	tw.tr.call(op, layer, func() { digest, results = fn(ctr) })
	tw.count(layer, ctr, results)
	tw.keep(digest, ctr)
}

// keep remembers a read request's answer for the comparison with the
// untraced pass.
func (tw *twin) keep(digest uint64, ctr *stats.Counters) {
	if !tw.tr.mute {
		tw.kept = append(tw.kept, workload.Answer{Digest: digest, Reads: ctr.TotalReads()})
	}
}

// exec replays one op against the twin under the tracer.
func (tw *twin) exec(i int, op *workload.Op) error {
	switch op.Kind {
	case workload.OpQuery:
		if tw.grid != nil {
			tw.request(i, "gridcube.engine", func(ctr *stats.Counters) (uint64, int) {
				res, err := tw.grid.TopK(gridcube.Query{Cond: op.Cond, F: tw.tr.timeFunc(op.Func()), K: op.K}, ctr)
				if err != nil {
					return 0, 0
				}
				return workload.DigestResults(res), len(res)
			})
			return nil
		}
		return tw.sigTopK(i, op)
	case workload.OpInsert, workload.OpDelete:
		ctr := stats.New()
		before := tw.sig.Store().Bytes()
		layer := "sigcube.insert"
		if op.Kind == workload.OpDelete {
			layer = "sigcube.delete"
		}
		applied := false
		tw.tr.call(i, layer, func() {
			if op.Kind == workload.OpInsert {
				applied = tw.sig.Insert(op.Sel, op.Rank, ctr) == op.TID
			} else {
				applied = tw.sig.Delete(op.TID, ctr)
			}
		})
		if !applied {
			return fmt.Errorf("op %d: write did not apply as generated", i)
		}
		if !tw.tr.mute {
			tw.writes++
			tw.appended += tw.sig.Store().Bytes() - before
		}
		tw.count(layer, ctr, 0)
	case workload.OpSession:
		tw.session(i, op.Session)
	}
	return nil
}

// sigTopK is sigcube.Cube.TopK taken apart at its two seams: assemble the
// tester, then search with the tester and the function wrapped (the tree
// already is).
func (tw *twin) sigTopK(i int, op *workload.Op) error {
	var tester signature.Tester
	var any bool
	var err error
	ctr := stats.New()
	tw.tr.call(i, "sigcube.tester", func() {
		tester, any, err = tw.sig.TesterFor(op.Cond, ctr)
	})
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	var res []core.Result
	if any && op.K > 0 {
		tw.tr.call(i, "sigcube.search", func() {
			res = sigcube.SearchTopK(tw.sig.Tree(), timedTester{tester, tw.tr}, tw.tr.timeFunc(op.Func()), op.K, ctr)
		})
	}
	tw.count("sigcube.search", ctr, len(res))
	tw.keep(workload.DigestResults(res), ctr)
	return nil
}

// session replays analytic-mix's six requests. The skyline, join and scan
// engines take no tester from outside, so they are whole-call spans with the
// timed trees (and, where a function is handed in, the timed function)
// reporting from inside them.
func (tw *twin) session(i int, s *workload.Session) {
	merge, join, scan := s.Funcs()
	var snap *skyline.Snapshot
	tw.request(i, "skyline.query", func(ctr *stats.Counters) (uint64, int) {
		q := skyline.Query{Cond: core.Cond{s.SkyDim: s.SkyVal}, Dims: workload.SkylineDims}
		res, sn, _ := tw.sky.Skyline(q, ctr)
		snap = sn
		return workload.DigestSkyline(res), len(res)
	})
	tw.request(i, "skyline.drilldown", func(ctr *stats.Counters) (uint64, int) {
		res, sn, _ := tw.sky.DrillDown(snap, core.Cond{s.ExtraDim: s.ExtraVal}, ctr)
		snap = sn
		return workload.DigestSkyline(res), len(res)
	})
	tw.request(i, "skyline.rollup", func(ctr *stats.Counters) (uint64, int) {
		res, _, _ := tw.sky.RollUp(snap, []int{s.SkyDim}, ctr)
		return workload.DigestSkyline(res), len(res)
	})
	tw.request(i, "indexmerge.merge", func(ctr *stats.Counters) (uint64, int) {
		res, _ := indexmerge.TopK(tw.btrees, tw.tr.timeFunc(merge), workload.MergeK, indexmerge.Options{}, ctr)
		return workload.DigestResults(res), len(res)
	})
	tw.request(i, "joinquery.join", func(ctr *stats.Counters) (uint64, int) {
		q := joinquery.Query{K: workload.JoinK, Parts: []joinquery.Part{
			{Rel: tw.joinRel[0], Cond: s.JoinCond[0], F: tw.tr.timeFunc(join[0])},
			{Rel: tw.joinRel[1], Cond: s.JoinCond[1], F: tw.tr.timeFunc(join[1])},
		}}
		res, _ := joinquery.Execute(q, joinquery.Options{}, ctr)
		return workload.DigestJoin(res), len(res)
	})
	tw.request(i, "sigcube.scan50", func(ctr *stats.Counters) (uint64, int) {
		sc, err := tw.sig.Scan(s.ScanCond, tw.tr.timeFunc(scan), ctr)
		if err != nil {
			return 0, 0
		}
		out := make([]core.Result, 0, workload.ScanN)
		for len(out) < workload.ScanN {
			res, ok := sc.Next()
			if !ok {
				break
			}
			out = append(out, res)
		}
		return workload.DigestResults(out), len(out)
	})
}

// replay is the two passes over one op prefix: untraced through the public
// API, then traced against the twin. It fails unless both give the same
// answers and charge the same reads, request by request — which is what ties
// the per-layer numbers to the end-to-end ones.
func replay(ctx context.Context, inst workload.Instance, tw *twin, ops, warm []workload.Op) (untraced, traced time.Duration, err error) {
	// Both sides first answer the warm requests, unrecorded, so that neither
	// timed replay pays for a cold heap and cold structures and what is left
	// of the difference between them is the tracer.
	tw.tr.mute = true
	cold := workload.NewRecorder(0, 0)
	for i := range warm {
		inst.Exec(ctx, &warm[i], cold)
		if err := tw.exec(i, &warm[i]); err != nil {
			return 0, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	tw.tr.mute = false

	rec := workload.NewRecorder(len(ops)*6, len(ops))
	rec.Keep = true
	start := time.Now()
	for i := range ops {
		inst.Exec(ctx, &ops[i], rec)
	}
	untraced = time.Since(start)
	if rec.Failed > 0 {
		return 0, 0, fmt.Errorf("untraced pass: %d requests failed", rec.Failed)
	}

	start = time.Now()
	for i := range ops {
		if err := tw.exec(i, &ops[i]); err != nil {
			return 0, 0, fmt.Errorf("traced pass: %w", err)
		}
	}
	traced = time.Since(start)

	if len(rec.Kept) != len(tw.kept) {
		return 0, 0, fmt.Errorf("traced pass answered %d requests, untraced %d", len(tw.kept), len(rec.Kept))
	}
	for i := range rec.Kept {
		if rec.Kept[i] != tw.kept[i] {
			return 0, 0, fmt.Errorf("request %d: traced pass %+v, untraced %+v", i, tw.kept[i], rec.Kept[i])
		}
	}
	return untraced, traced, nil
}

// comparators runs the scan, boolean-first and ranking-first baselines over
// the first n top-k requests of ops: the denominators of the paper's verdict.
// Requests without a predicate (index-merge's) run with an empty one.
func comparators(tw *twin, ops []workload.Op, n int, set func(name string, v float64)) {
	rel := tw.data.Rel
	heap := baselines.NewHeapFile(rel, 0)
	scan := baselines.NewTableScan(heap)
	boolean := baselines.NewBooleanFirst(heap)
	var rankFirst *baselines.RankingFirst
	if tw.tree != nil {
		rankFirst = baselines.NewRankingFirst(heap, tw.tree)
	} else {
		rankFirst = baselines.BuildRankingFirst(heap, rtree.Config{})
	}

	var scanReads, boolReads, rankReads int64
	var boolBusy time.Duration
	done := 0
	for i := 0; i < len(ops) && done < n; i++ {
		var cond core.Cond
		var f ranking.Func
		k := ops[i].K
		switch ops[i].Kind {
		case workload.OpQuery:
			cond, f = ops[i].Cond, ops[i].Func()
		case workload.OpSession:
			f, _, _ = ops[i].Session.Funcs()
			k = workload.MergeK
		default:
			continue
		}
		ctr := stats.New()
		scan.TopK(cond, f, k, ctr)
		scanReads += ctr.TotalReads()
		ctr = stats.New()
		start := time.Now()
		boolean.TopK(cond, f, k, ctr)
		boolBusy += time.Since(start)
		boolReads += ctr.TotalReads()
		ctr = stats.New()
		rankFirst.TopK(cond, f, k, ctr)
		rankReads += ctr.TotalReads()
		done++
	}
	if done == 0 {
		return
	}
	set("baselines.scan_reads", float64(scanReads)/float64(done))
	set("baselines.boolean_first_reads", float64(boolReads)/float64(done))
	set("baselines.ranking_first_reads", float64(rankReads)/float64(done))
	set("baselines.boolean_first_ms", boolBusy.Seconds()*1e3/float64(done))
}
