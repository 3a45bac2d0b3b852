// Command layertrace is the benchmark's traced pass: the per-layer numbers
// behind one workload's end-to-end ones. It is the only part of the benchmark
// that imports rankcube/internal/..., and it is compiled separately from the
// end-to-end runner, which executes it: when a refactor changes an internal
// signature this program may stop building until a benchmark change follows,
// but the end-to-end numbers are not affected. README.md lists the internal
// symbols it touches.
//
// It replays a fixed prefix of the workload's op list twice — untraced
// through the public API, then against twin structures built through the
// internal constructors with timing wrappers at the seams — requires both to
// give the same answers and charge the same reads, and then runs isolated
// probes over the concrete types that cannot be wrapped.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rankcube/benchmark/report"
	"rankcube/benchmark/workload"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
)

// comparatorOps is how many requests the baseline comparators answer.
const comparatorOps = 50

func main() {
	name := flag.String("workload", "", "workload to trace")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	traceFile := flag.String("tracefile", "", "write the recorded spans to this file as JSON lines")
	flag.Parse()
	runtime.GOMAXPROCS(2)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, *name, *seed, *traceFile)
	if err == nil {
		err = res.Print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layertrace:", err)
		os.Exit(2)
	}
}

func run(ctx context.Context, name string, seed int64, traceFile string) (*report.Result, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	res, tr, err := trace(ctx, spec, seed, 1, true)
	if err == nil && traceFile != "" {
		err = writeSpans(traceFile, tr.spans)
	}
	return res, err
}

// trace is the whole pass. scale is 1 and probes true outside tests.
func trace(ctx context.Context, spec workload.Spec, seed int64, scale float64, probes bool) (*report.Result, *tracer, error) {
	// Two copies of the inputs: the public structures and the twin each own
	// their relation, because sig-churn's writes append to it.
	pub, err := spec.Generate(seed, scale)
	if err != nil {
		return nil, nil, err
	}
	twinData, err := spec.Generate(seed, scale)
	if err != nil {
		return nil, nil, err
	}
	inst := spec.Build(pub)
	tr := newTracer()
	tw := buildTwin(spec.Engine, twinData, tr)

	res := &report.Result{Workload: spec.Name, Trace: 1}
	for _, m := range Metrics {
		res.Set(m.Name, 0, m.Unit)
	}
	set := func(name string, v float64) {
		m, ok := res.Metrics[name]
		if !ok {
			// A name missing from Metrics would be missing from BENCHMARK.json too.
			fmt.Fprintln(os.Stderr, "layertrace: unlisted metric", name)
			return
		}
		m.Value = v
		res.Metrics[name] = m
	}

	// A quarter of the prefix the end-to-end pass counts over: a fixed
	// number of ops, so the count metrics here repeat exactly too.
	ops := pub.Ops
	if n := spec.Prefix / 4; n < len(ops) {
		ops = ops[:n]
	}
	// Comparators first: they read the twin's relation, which the replay
	// of sig-churn goes on to change.
	comparators(tw, ops, comparatorOps, set)

	// Warm-up requests come from the other end of the list: a tenth as many
	// reads as the replay has ops.
	var warm []workload.Op
	for i := len(pub.Ops) - 1; i >= len(ops) && len(warm) < len(ops)/10; i-- {
		if pub.Ops[i].IsRead() {
			warm = append(warm, pub.Ops[i])
		}
	}
	untraced, traced, err := replay(ctx, inst, tw, ops, warm)
	res.Attempted = tw.all.requests
	if err != nil {
		// The traced pass does not reproduce the untraced one: its numbers
		// describe something else, so report the pass as failed.
		fmt.Fprintln(os.Stderr, "layertrace:", err)
		res.Failed = res.Attempted
		return res, tr, nil
	}
	res.Correct = true
	set("trace.overhead_pct", (traced.Seconds()/untraced.Seconds()-1)*100)
	tw.report(set)
	if !probes {
		return res, tr, nil
	}

	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265)) // "probe"
	probeBoundary(ctx, inst, set)
	probePager(rng, set)
	probeHeap(rng, set)
	probeRanking(rng, pub.Rel.Schema().R(), set)
	if tw.tree != nil {
		probeBitvec(rng, tw.tree.MaxFanout(), set)
		probeRTree(rng, tw.tree, set)
	} else {
		// No partition tree in this workload; the codec is still probed, at
		// the fanout a tree over this relation would have.
		probeBitvec(rng, rtree.New(allDims(pub.Rel), pub.Rel.Schema().R(), relationDomain(pub.Rel), rtree.Config{}).MaxFanout(), set)
	}
	if tw.grid != nil {
		probePseudoBlock(rng, tw.grid, ops, set)
	}
	return res, tr, nil
}

// report turns the traced pass's spans and counters into means. Metrics of a
// layer every engine shares (signature, hindex, rtree, btree, ranking, pager)
// are per traced request, reads and writes alike;
// metrics of one engine are per request that engine answered. A layer the
// workload never enters reads 0.
func (tw *twin) report(set func(string, float64)) {
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	// perSpan is the mean duration in ms of one span of a top-level layer.
	perSpan := func(layer string) float64 {
		st := tw.tr.sum(layer)
		return per(ms(st.busy), int(st.calls))
	}
	all := tw.all.requests

	sig := tw.engine("sigcube.search", "sigcube.scan50")
	set("sigcube.tester_us", perSpan("sigcube.tester")*1e3)
	set("sigcube.search_self_ms", per(ms(tw.tr.self("sigcube.search")), tw.engine("sigcube.search").requests))
	set("sigcube.states_generated", per(float64(sig.ctr.StatesGenerated), sig.requests))
	set("sigcube.states_examined", per(float64(sig.ctr.StatesExamined), sig.requests))
	set("sigcube.pruned", per(float64(sig.ctr.Pruned), sig.requests))
	set("sigcube.peak_heap", float64(sig.ctr.PeakHeap))
	set("sigcube.useful_ratio", per(float64(sig.results), int(sig.ctr.StatesExamined)))
	set("sigcube.insert_ms", perSpan("sigcube.insert"))
	set("sigcube.delete_ms", perSpan("sigcube.delete"))
	set("sigcube.scan50_ms", perSpan("sigcube.scan50"))

	tests := tw.tr.sum("signature")
	set("signature.test_calls", per(float64(tests.calls), all))
	set("signature.test_busy_ms", per(ms(tests.busy), all))
	set("signature.prune_ratio", per(float64(tests.falses), int(tests.calls)))
	set("signature.reads", per(float64(tw.all.ctr.Reads(stats.StructSignature)), all))
	set("signature.bytes_appended_per_write", per(float64(tw.appended), tw.writes))

	nodes := tw.tr.sum("hindex")
	set("hindex.node_calls", per(float64(nodes.calls), all))
	set("hindex.busy_ms", per(ms(nodes.busy), all))
	set("rtree.reads", per(float64(tw.all.ctr.Reads(stats.StructRTree)), all))
	set("btree.reads", per(float64(tw.all.ctr.Reads(stats.StructBTree)), all))
	set("pager.retries", per(float64(tw.all.ctr.Retries), all))
	set("ranking.busy_ms", per(ms(tw.tr.sum("ranking").busy), all))

	set("gridcube.engine_us", perSpan("gridcube.engine")*1e3)
	grid := tw.engine("gridcube.engine")
	set("gridcube.cube_reads", per(float64(grid.ctr.Reads(stats.StructCube)), grid.requests))
	set("gridcube.blocktab_reads", per(float64(grid.ctr.Reads(stats.StructBlockTab)), grid.requests))
	set("gridcube.table_reads", per(float64(grid.ctr.Reads(stats.StructTable)), grid.requests))

	sky := tw.engine("skyline.query", "skyline.drilldown", "skyline.rollup")
	set("skyline.query_ms", perSpan("skyline.query"))
	set("skyline.drilldown_ms", perSpan("skyline.drilldown"))
	set("skyline.rollup_ms", perSpan("skyline.rollup"))
	set("skyline.domination_pruned", per(float64(sky.ctr.DominationPruned), sky.requests))
	join := tw.engine("joinquery.join")
	set("joinquery.join_ms", perSpan("joinquery.join"))
	set("joinquery.reads", per(float64(join.ctr.TotalReads()), join.requests))
	merge := tw.engine("indexmerge.merge")
	set("indexmerge.merge_ms", perSpan("indexmerge.merge"))
	set("indexmerge.states_generated", per(float64(merge.ctr.StatesGenerated), merge.requests))
}

// writeSpans stores the trace as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
