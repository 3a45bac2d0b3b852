package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rankcube/benchmark/workload"
	"rankcube/internal/btree"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/signature"
	"rankcube/internal/table"
)

// TestFuncWrappersAreTransparent: a timed function returns exactly what the
// function it wraps returns, and keeps exactly the optional interfaces the
// engines probe for — the grid cube's neighbourhood search needs Convex and
// Minimizer, index-merge's neighbourhood expansion Monotone or SemiMonotone.
func TestFuncWrappersAreTransparent(t *testing.T) {
	tr := newTracer()
	tr.on = true
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []workload.FuncKind{workload.Linear, workload.SqDist, workload.General} {
		f := workload.FuncSpec{Kind: kind, Dims: 3, P: [3]float64{0.3, 0.8, 0.55}}.Build()
		w := tr.timeFunc(f)
		if reflect.TypeOf(w) == reflect.TypeOf(f) {
			t.Fatalf("%v: not wrapped", f)
		}
		for i := 0; i < 50; i++ {
			lo := []float64{rng.Float64() / 2, rng.Float64() / 2, rng.Float64() / 2}
			hi := []float64{lo[0] + rng.Float64()/2, lo[1] + rng.Float64()/2, lo[2] + rng.Float64()/2}
			box := ranking.NewBox(lo, hi)
			if w.Eval(hi) != f.Eval(hi) || w.LowerBound(box) != f.LowerBound(box) {
				t.Fatalf("%v: wrapper changes a value", f)
			}
			if fm, ok := f.(ranking.Minimizer); ok && !reflect.DeepEqual(w.(ranking.Minimizer).ArgMin(box), fm.ArgMin(box)) {
				t.Fatalf("%v: wrapper changes ArgMin", f)
			}
		}
		if ranking.IsConvexFunc(w) != ranking.IsConvexFunc(f) {
			t.Errorf("%v: convexity %v became %v", f, ranking.IsConvexFunc(f), ranking.IsConvexFunc(w))
		}
		_, fMin := f.(ranking.Minimizer)
		_, wMin := w.(ranking.Minimizer)
		_, fMono := f.(ranking.Monotone)
		_, wMono := w.(ranking.Monotone)
		_, fSemi := f.(ranking.SemiMonotone)
		_, wSemi := w.(ranking.SemiMonotone)
		if fMin != wMin || fMono != wMono || fSemi != wSemi {
			t.Errorf("%v: optional interfaces (minimizer, monotone, semi-monotone) %v %v %v became %v %v %v",
				f, fMin, fMono, fSemi, wMin, wMono, wSemi)
		}
		if !reflect.DeepEqual(w.Attrs(), f.Attrs()) || w.String() != f.String() {
			t.Errorf("%v: Attrs or String changed", f)
		}
	}
	if st := tr.child[layerRanking]; st.calls != 3*50*2 || st.busy <= 0 {
		t.Errorf("ranking layer saw %d calls, %v busy; want 300 calls and a positive estimate", st.calls, st.busy)
	}
}

func smallRelation(t *testing.T, n int) *table.Table {
	t.Helper()
	rel := table.MustNew(table.Schema{SelNames: []string{"a"}, SelCard: []int{4}, RankNames: []string{"x", "y"}})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		rel.Append([]int32{int32(rng.Intn(4))}, []float64{rng.Float64(), rng.Float64()})
	}
	return rel
}

// TestTreeWrappersAreTransparent: timed trees answer node accesses like the
// trees they wrap and still satisfy every interface the engines assert.
func TestTreeWrappersAreTransparent(t *testing.T) {
	rel := smallRelation(t, 2000)
	tr := newTracer()
	tr.on = true

	rt := rtree.Bulk(rel, allDims(rel), relationDomain(rel), rtree.Config{Fanout: 8})
	var wrapped hindex.PartitionTree = timedRTree{rt, tr}
	if _, ok := wrapped.(hindex.MaintainableTree); !ok {
		t.Error("timed R-tree lost MaintainableTree: cube maintenance would refuse it")
	}
	calls := int64(0)
	for id := hindex.NodeID(0); int(id) < rt.NumNodes(); id++ {
		if rt.IsLeaf(id) {
			if !reflect.DeepEqual(wrapped.LeafEntries(id), rt.LeafEntries(id)) {
				t.Fatalf("leaf %d differs through the wrapper", id)
			}
		} else if !reflect.DeepEqual(wrapped.Children(id), rt.Children(id)) {
			t.Fatalf("node %d differs through the wrapper", id)
		}
		calls++
	}
	if got := tr.child[layerHindex].calls; got != calls {
		t.Errorf("hindex layer counted %d calls, made %d", got, calls)
	}
	if !reflect.DeepEqual(wrapped.TuplePath(17), rt.TuplePath(17)) {
		t.Error("TuplePath is not promoted unchanged")
	}

	bt := btree.Build(rel, 0, relationDomain(rel), btree.Config{})
	var idx hindex.Index = timedBTree{bt, tr}
	if vo, ok := idx.(hindex.ValueOrdered); !ok || !vo.ValueOrdered() {
		t.Error("timed B-tree lost ValueOrdered: index-merge would change strategy")
	}
	if _, ok := idx.(hindex.TupleLocator); !ok {
		t.Error("timed B-tree lost TupleLocator")
	}
	if root := bt.Root(); !bt.IsLeaf(root) && !reflect.DeepEqual(idx.Children(root), bt.Children(root)) {
		t.Error("B-tree root differs through the wrapper")
	}
}

type fixedTester struct{ ok bool }

func (f fixedTester) Test([]int) bool { return f.ok }

func TestTesterWrapperCountsPrunes(t *testing.T) {
	tr := newTracer()
	tr.on = true
	pass, prune := timedTester{fixedTester{true}, tr}, timedTester{fixedTester{false}, tr}
	for i := 0; i < 40; i++ {
		if !pass.Test(nil) || prune.Test([]int{1}) {
			t.Fatal("wrapper changed the verdict")
		}
	}
	st := tr.child[layerSignature]
	if st.calls != 80 || st.falses != 40 {
		t.Errorf("signature layer: %d calls, %d prunes; want 80, 40", st.calls, st.falses)
	}
	var _ signature.Tester = pass

	// Off, the wrappers neither count nor time.
	tr.on = false
	pass.Test(nil)
	if tr.child[layerSignature].calls != 80 {
		t.Error("a call outside a span was counted")
	}
}

// TestSelfTime: a layer's self time is its span minus its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	f := tr.timeFunc(ranking.Sum(0))
	tr.call(0, "engine", func() {
		time.Sleep(2 * time.Millisecond)
		for i := 0; i < 64; i++ {
			f.Eval([]float64{1})
		}
	})
	total, child := tr.sum("engine").busy, tr.sum("ranking")
	if child.calls != 64 || child.busy <= 0 {
		t.Fatalf("ranking child: %+v", child)
	}
	if self := tr.self("engine"); self != total-child.busy || self < 2*time.Millisecond {
		t.Errorf("self = %v, span %v, child %v", self, total, child.busy)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != "engine" || tr.spans[1].Calls != 64 {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the per-layer list and BENCHMARK.json's
// per_layer section identical: names, order, units, directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is outside this directory and absent here:", err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(Metrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the tracer %d", len(doc.PerLayer), len(Metrics))
	}
	for i, m := range Metrics {
		better := "lower"
		if m.HigherBetter {
			better = "higher"
		}
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != better {
			t.Errorf("per_layer[%d] = %+v, the tracer has %+v", i, got, m)
		}
	}
}

// TestTracedPassReproducesUntraced runs the replay of every workload at 1/100
// scale: the twin built through the internal constructors must answer every
// request like the public structures and charge the same reads (trace reports
// the pass as failed otherwise), and its count metrics must repeat exactly.
func TestTracedPassReproducesUntraced(t *testing.T) {
	counts := []string{"sigcube.states_generated", "sigcube.states_examined", "sigcube.pruned", "sigcube.peak_heap",
		"signature.test_calls", "signature.reads", "signature.prune_ratio", "signature.bytes_appended_per_write",
		"hindex.node_calls", "rtree.reads", "btree.reads", "gridcube.cube_reads", "gridcube.blocktab_reads",
		"skyline.domination_pruned", "joinquery.reads", "indexmerge.states_generated",
		"baselines.scan_reads", "baselines.boolean_first_reads", "baselines.ranking_first_reads"}
	// Which layers each workload must enter, and one it must not.
	enters := map[string][]string{
		"sig-topk":     {"sigcube.search_self_ms", "signature.test_calls", "hindex.node_calls", "ranking.busy_ms", "rtree.reads"},
		"grid-serve":   {"gridcube.engine_us", "gridcube.cube_reads", "gridcube.blocktab_reads", "ranking.busy_ms"},
		"sig-churn":    {"sigcube.insert_ms", "sigcube.delete_ms", "signature.bytes_appended_per_write", "signature.test_calls"},
		"analytic-mix": {"skyline.query_ms", "skyline.drilldown_ms", "skyline.rollup_ms", "joinquery.join_ms", "indexmerge.merge_ms", "sigcube.scan50_ms", "btree.reads"},
	}
	avoids := map[string]string{"sig-topk": "gridcube.engine_us", "grid-serve": "signature.test_calls",
		"sig-churn": "skyline.query_ms", "analytic-mix": "sigcube.insert_ms"}
	for _, spec := range workload.All {
		first, tr, err := trace(context.Background(), spec, 2, 0.01, false)
		if err != nil {
			t.Fatal(err)
		}
		second, _, err := trace(context.Background(), spec, 2, 0.01, false)
		if err != nil {
			t.Fatal(err)
		}
		if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
			t.Fatalf("%s: traced pass does not reproduce the untraced one (attempted %d, failed %d)", spec.Name, first.Attempted, first.Failed)
		}
		if len(first.Metrics) != len(Metrics) {
			t.Errorf("%s: %d metrics, want all %d", spec.Name, len(first.Metrics), len(Metrics))
		}
		for _, name := range counts {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: count metric %s is %v, then %v", spec.Name, name, a, b)
			}
		}
		for _, name := range enters[spec.Name] {
			if !(first.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v, want it entered", spec.Name, name, first.Metrics[name].Value)
			}
		}
		if v := first.Metrics[avoids[spec.Name]].Value; v != 0 {
			t.Errorf("%s: %s = %v, want 0 for a layer the workload never enters", spec.Name, avoids[spec.Name], v)
		}

		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := writeSpans(path, tr.spans); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Layer == "" || s.Calls == 0 {
				t.Fatalf("%s: trace line %d: %q: %v", spec.Name, lines, sc.Text(), err)
			}
		}
		f.Close()
		if lines != len(tr.spans) || lines == 0 {
			t.Errorf("%s: %d trace lines for %d spans", spec.Name, lines, len(tr.spans))
		}
	}
}
