package main

import (
	"time"

	"rankcube/internal/btree"
	"rankcube/internal/hindex"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/signature"
	"rankcube/internal/table"
)

// Spans are recorded from here, around the calls into each layer, through
// the seams the engines already have: a signature.Tester, a partition tree
// and a ranking.Func are all handed in by the caller. Each wrapper embeds the
// concrete value it times, so every method it does not override — and with
// them the optional interfaces the engines probe for (Convex and Minimizer
// for the grid cube's neighbourhood search, Monotone/SemiMonotone and
// ValueOrdered for index-merge, MaintainableTree for cube maintenance) — is
// promoted unchanged.

// Child layers whose calls are too many to record one by one (~1 000 per
// query); the tracer aggregates them per op.
const (
	layerSignature = iota
	layerHindex
	layerRanking
	numChildLayers
)

var childLayerNames = [numChildLayers]string{"signature", "hindex", "ranking"}

type layerStat struct {
	calls int64
	busy  time.Duration
	// falses counts Test calls that pruned (signature layer only).
	falses int64
}

// span is one line of the trace file: the work one layer did for one op,
// aggregated over its calls, and the layer that called it.
type span struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Calls  int64  `json:"calls"`
	BusyNS int64  `json:"busy_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer collects spans in memory. It is single-goroutine, like the traced
// pass itself.
type tracer struct {
	// on gates the wrappers, so builds and probes through wrapped values
	// cost and record nothing.
	on bool
	// mute makes call run its function and record nothing (warm-up).
	mute  bool
	child [numChildLayers]layerStat
	phase [numChildLayers]int64
	spans []span
	// total sums every span by layer and parent, for the per-request means.
	total map[spanKey]*layerStat
}

type spanKey struct{ layer, parent string }

func newTracer() *tracer { return &tracer{total: make(map[spanKey]*layerStat)} }

func (t *tracer) add(s span, falses int64) {
	t.spans = append(t.spans, s)
	key := spanKey{s.Layer, s.Parent}
	tot := t.total[key]
	if tot == nil {
		tot = &layerStat{}
		t.total[key] = tot
	}
	tot.calls += s.Calls
	tot.busy += time.Duration(s.BusyNS)
	tot.falses += falses
}

// call times fn as one top-level span of layer for op, with the child-layer
// work done inside it recorded as its children.
func (t *tracer) call(op int, layer string, fn func()) {
	if t.mute {
		fn()
		return
	}
	t.child = [numChildLayers]layerStat{}
	t.on = true
	start := time.Now()
	fn()
	d := time.Since(start)
	t.on = false
	t.add(span{Op: op, Layer: layer, Calls: 1, BusyNS: int64(d)}, 0)
	for l, st := range t.child {
		if st.calls > 0 {
			t.add(span{Op: op, Layer: childLayerNames[l], Calls: st.calls, BusyNS: int64(st.busy), Parent: layer}, st.falses)
		}
	}
}

// sum totals the spans of layer under every parent.
func (t *tracer) sum(layer string) layerStat {
	var out layerStat
	for key, st := range t.total {
		if key.layer == layer {
			out.calls += st.calls
			out.busy += st.busy
			out.falses += st.falses
		}
	}
	return out
}

// self is a top-level layer's total time minus what its child layers spent
// inside it.
func (t *tracer) self(layer string) time.Duration {
	d := t.sum(layer).busy
	for key, st := range t.total {
		if key.parent == layer {
			d -= st.busy
		}
	}
	return d
}

// sampleEvery is how many calls of a child layer share one timed call. The
// signature and ranking layers are entered some twenty thousand times per
// sig-topk query at tens of nanoseconds a call; two clock reads around every
// one of them cost a third of the query. Every call is counted, every sixteenth
// is timed, and the timed ones stand for the rest: busy time is an estimate
// from a one-in-sixteen sample, the call counts are exact. Node accesses are
// few and long, so they are all timed.
var sampleEvery = [numChildLayers]int64{layerSignature: 16, layerHindex: 1, layerRanking: 16}

// enter counts one call into layer and reports whether to time it. The phase
// runs on across ops so that no position in a query is always the timed one.
func (t *tracer) enter(layer int) bool {
	if !t.on {
		return false
	}
	t.child[layer].calls++
	t.phase[layer]++
	return t.phase[layer]%sampleEvery[layer] == 0
}

// leave credits a timed call, scaled to the calls it stands for.
func (t *tracer) leave(layer int, start time.Time) {
	t.child[layer].busy += time.Since(start) * time.Duration(sampleEvery[layer])
}

// timedTester times boolean-pruning probes.
type timedTester struct {
	signature.Tester
	t *tracer
}

func (w timedTester) Test(path []int) bool {
	timed := w.t.enter(layerSignature)
	var start time.Time
	if timed {
		start = time.Now()
	}
	ok := w.Tester.Test(path)
	if timed {
		w.t.leave(layerSignature, start)
	}
	if !ok && w.t.on {
		w.t.child[layerSignature].falses++
	}
	return ok
}

// timedRTree times node access and maintenance of an R-tree partition.
type timedRTree struct {
	*rtree.Tree
	t *tracer
}

func (w timedRTree) Children(id hindex.NodeID) []hindex.ChildRef {
	if w.t.enter(layerHindex) {
		defer w.t.leave(layerHindex, time.Now())
	}
	return w.Tree.Children(id)
}

func (w timedRTree) LeafEntries(id hindex.NodeID) []hindex.LeafEntry {
	if w.t.enter(layerHindex) {
		defer w.t.leave(layerHindex, time.Now())
	}
	return w.Tree.LeafEntries(id)
}

func (w timedRTree) Insert(tid table.TID, point []float64) []table.TID {
	if w.t.enter(layerHindex) {
		defer w.t.leave(layerHindex, time.Now())
	}
	return w.Tree.Insert(tid, point)
}

func (w timedRTree) Delete(tid table.TID) ([]table.TID, bool) {
	if w.t.enter(layerHindex) {
		defer w.t.leave(layerHindex, time.Now())
	}
	return w.Tree.Delete(tid)
}

// timedBTree times node access of a B+-tree index.
type timedBTree struct {
	*btree.Tree
	t *tracer
}

func (w timedBTree) Children(id hindex.NodeID) []hindex.ChildRef {
	if w.t.enter(layerHindex) {
		defer w.t.leave(layerHindex, time.Now())
	}
	return w.Tree.Children(id)
}

func (w timedBTree) LeafEntries(id hindex.NodeID) []hindex.LeafEntry {
	if w.t.enter(layerHindex) {
		defer w.t.leave(layerHindex, time.Now())
	}
	return w.Tree.LeafEntries(id)
}

// The three ranking-function wrappers, one per concrete family the
// workloads use.

type timedLinear struct {
	*ranking.LinearFunc
	t *tracer
}

func (w timedLinear) Eval(x []float64) float64 {
	if w.t.enter(layerRanking) {
		defer w.t.leave(layerRanking, time.Now())
	}
	return w.LinearFunc.Eval(x)
}

func (w timedLinear) LowerBound(box ranking.Box) float64 {
	if w.t.enter(layerRanking) {
		defer w.t.leave(layerRanking, time.Now())
	}
	return w.LinearFunc.LowerBound(box)
}

type timedDist struct {
	*ranking.DistFunc
	t *tracer
}

func (w timedDist) Eval(x []float64) float64 {
	if w.t.enter(layerRanking) {
		defer w.t.leave(layerRanking, time.Now())
	}
	return w.DistFunc.Eval(x)
}

func (w timedDist) LowerBound(box ranking.Box) float64 {
	if w.t.enter(layerRanking) {
		defer w.t.leave(layerRanking, time.Now())
	}
	return w.DistFunc.LowerBound(box)
}

type timedExpr struct {
	*ranking.ExprFunc
	t *tracer
}

func (w timedExpr) Eval(x []float64) float64 {
	if w.t.enter(layerRanking) {
		defer w.t.leave(layerRanking, time.Now())
	}
	return w.ExprFunc.Eval(x)
}

func (w timedExpr) LowerBound(box ranking.Box) float64 {
	if w.t.enter(layerRanking) {
		defer w.t.leave(layerRanking, time.Now())
	}
	return w.ExprFunc.LowerBound(box)
}

// timeFunc wraps f in the wrapper of its family. A family the workloads do
// not generate is returned untimed rather than wrapped in something that
// would hide its optional interfaces.
func (t *tracer) timeFunc(f ranking.Func) ranking.Func {
	switch f := f.(type) {
	case *ranking.LinearFunc:
		return timedLinear{f, t}
	case *ranking.DistFunc:
		return timedDist{f, t}
	case *ranking.ExprFunc:
		return timedExpr{f, t}
	}
	return f
}
