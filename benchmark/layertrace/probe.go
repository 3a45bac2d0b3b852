package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rankcube"
	"rankcube/benchmark/stat"
	"rankcube/benchmark/workload"
	"rankcube/internal/admission"
	"rankcube/internal/bitvec"
	"rankcube/internal/gridcube"
	"rankcube/internal/guard"
	"rankcube/internal/heap"
	"rankcube/internal/hindex"
	"rankcube/internal/obs"
	"rankcube/internal/pager"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Concrete types the engines construct themselves cannot be wrapped, so they
// get isolated probes: a fixed number of calls to their exported functions
// over inputs drawn from the seed (and from the workload's own structures
// where the cost depends on them), repeated probeReps times with the median
// reported.
const probeReps = 5

type probeResult struct{ ns, allocs float64 }

// probe times n calls of fn, probeReps times over, and returns the median
// nanoseconds and heap allocations per call.
func probe(n int, fn func(i int)) probeResult {
	ns := make([]float64, probeReps)
	allocs := make([]float64, probeReps)
	var before, after runtime.MemStats
	for r := range ns {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		ns[r] = float64(d.Nanoseconds()) / float64(n)
		allocs[r] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return probeResult{stat.Median(ns), stat.Median(allocs)}
}

// probe2 is probe with two goroutines each making n calls at once; the result
// is the wall time per call as each caller sees it, so a layer that scales
// reads the same as under probe and one that serializes reads double.
func probe2(n int, fn func(g, i int)) float64 {
	ns := make([]float64, probeReps)
	for r := range ns {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					fn(g, i)
				}
			}(g)
		}
		wg.Wait()
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return stat.Median(ns)
}

// probeBoundary measures the serving shell alone: the public no-op request,
// then its parts.
func probeBoundary(ctx context.Context, inst workload.Instance, set func(string, float64)) {
	const n = 20000
	noop := probe(n, func(int) { _ = inst.NoOp(ctx) })
	set("boundary.noop_us", noop.ns/1e3)
	set("boundary.noop_allocs", noop.allocs)
	set("boundary.noop_2c_us", probe2(n, func(int, int) { _ = inst.NoOp(ctx) })/1e3)
	set("boundary.noop_trace_us", probe(n, func(int) { _ = inst.NoOp(ctx, rankcube.WithTrace(rankcube.NewTrace())) }).ns/1e3)

	ctl := []*guard.RW{guard.New()}
	shared := probe(100000, func(int) {
		release, err := guard.AcquireShared(ctx, ctl)
		if err == nil {
			release()
		}
	})
	set("guard.acquire_shared_ns", shared.ns)
	set("guard.acquire_shared_allocs", shared.allocs)

	gate := admission.NewGate("probe", admission.Config{MaxInFlight: 2, MaxWaiting: 2}, obs.NewRegistry())
	set("admission.acquire_ns", probe(100000, func(int) {
		release, err := gate.Acquire(ctx)
		if err == nil {
			release()
		}
	}).ns)

	reg := obs.NewRegistry()
	reads := map[stats.Structure]int64{stats.StructCube: 30, stats.StructBlockTab: 4}
	record := func() { reg.RecordQuery("probe", obs.OutcomeOK, 50*time.Microsecond, reads, 0, 0) }
	set("obs.record_query_ns", probe(50000, func(int) { record() }).ns)
	set("obs.record_query_2c_ns", probe2(50000, func(int, int) { record() }))
}

// probePager measures governed reads of checksummed 4 KB pages.
func probePager(rng *rand.Rand, set func(string, float64)) {
	const pages, n = 1024, 50000
	store := pager.NewStore(stats.StructSignature, pager.PageSize)
	for p := 0; p < pages; p++ {
		data := make([]byte, pager.PageSize)
		rng.Read(data)
		store.Append(data)
	}
	ids := make([]pager.PageID, n)
	for i := range ids {
		ids[i] = pager.PageID(rng.Intn(pages))
	}
	ctrs := [2]*stats.Counters{stats.New(), stats.New()}
	set("pager.read_ns", probe(n, func(i int) { store.Read(ids[i], ctrs[0]) }).ns)
	set("pager.read_2c_ns", probe2(n, func(g, i int) { store.Read(ids[i], ctrs[g]) }))
	set("pager.touch_ns", probe(n, func(i int) { store.Touch(ids[i], ctrs[0]) }).ns)
	buf := pager.NewBuffer(store)
	for p := 0; p < pages; p++ {
		buf.Read(pager.PageID(p), ctrs[0])
	}
	set("pager.buffer_hit_ns", probe(n, func(i int) { buf.Read(ids[i], ctrs[0]) }).ns)
}

// probeBitvec measures the signature codec on bit vectors as wide as the
// partition tree's fanout, at densities from nearly empty to nearly full.
func probeBitvec(rng *rand.Rand, fanout int, set func(string, float64)) {
	const vectors, rounds = 64, 100
	codec := bitvec.NewCodec(fanout)
	bits := make([]*bitvec.Bits, vectors)
	encoded := make([][]byte, vectors)
	for v := range bits {
		bits[v] = bitvec.NewBits(fanout)
		density := float64(v+1) / float64(vectors+1)
		for i := 0; i < fanout; i++ {
			bits[v].Set(i, rng.Float64() < density)
		}
		var w bitvec.Writer
		codec.Encode(&w, bits[v])
		encoded[v] = w.Bytes()
	}
	dec := probe(vectors*rounds, func(i int) { codec.Decode(bitvec.NewReader(encoded[i%vectors])) })
	set("bitvec.decode_ns", dec.ns)
	set("bitvec.decode_allocs", dec.allocs)
	set("bitvec.encode_ns", probe(vectors*rounds, func(i int) {
		var w bitvec.Writer
		codec.Encode(&w, bits[i%vectors])
	}).ns)
}

// probeRTree measures the node accessors every search loop calls, on nodes
// sampled from the workload's own partition tree.
func probeRTree(rng *rand.Rand, rt *rtree.Tree, set func(string, float64)) {
	var inner, leaves []hindex.NodeID
	for id := hindex.NodeID(0); int(id) < rt.NumNodes(); id++ {
		if rt.NumChildren(id) == 0 {
			continue // a slot freed by maintenance
		}
		if rt.IsLeaf(id) {
			leaves = append(leaves, id)
		} else {
			inner = append(inner, id)
		}
	}
	if len(inner) == 0 || len(leaves) == 0 {
		return
	}
	const n = 20000
	pick := func(from []hindex.NodeID) []hindex.NodeID {
		out := make([]hindex.NodeID, n)
		for i := range out {
			out[i] = from[rng.Intn(len(from))]
		}
		return out
	}
	in, lf := pick(inner), pick(leaves)
	ch := probe(n, func(i int) { rt.Children(in[i]) })
	set("rtree.children_ns", ch.ns)
	set("rtree.children_allocs", ch.allocs)
	set("rtree.leafentries_ns", probe(n, func(i int) { rt.LeafEntries(lf[i]) }).ns)
}

// searchEntry is shaped like the entry sigcube's search heap holds.
type searchEntry struct {
	score   float64
	isTuple bool
	node    hindex.NodeID
	tid     table.TID
	path    []int
}

func probeHeap(rng *rand.Rand, set func(string, float64)) {
	const size, rounds = 1024, 50
	scores := make([]float64, size)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	path := []int{1, 2, 3}
	h := heap.New[searchEntry](func(a, b searchEntry) bool { return a.score < b.score })
	res := probe(rounds, func(int) {
		for _, s := range scores {
			h.Push(searchEntry{score: s, path: path})
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	set("heap.push_pop_ns", res.ns/size)
}

// probeRanking measures the two calls the search loops make per state, for
// each function family, over random boxes and points of the unit domain.
func probeRanking(rng *rand.Rand, dims int, set func(string, float64)) {
	const inputs, rounds = 256, 200
	boxes := make([]ranking.Box, inputs)
	points := make([][]float64, inputs)
	for i := range boxes {
		lo, hi := make([]float64, dims), make([]float64, dims)
		points[i] = make([]float64, dims)
		for d := 0; d < dims; d++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
			points[i][d] = rng.Float64()
		}
		boxes[i] = ranking.NewBox(lo, hi)
	}
	for _, fam := range []struct {
		name string
		kind workload.FuncKind
	}{{"linear", workload.Linear}, {"distance", workload.SqDist}, {"general", workload.General}} {
		f := workload.FuncSpec{Kind: fam.kind, Dims: dims, P: [3]float64{0.7, 0.4, 0.9}}.Build()
		set("ranking.lowerbound_ns."+fam.name, probe(inputs*rounds, func(i int) { f.LowerBound(boxes[i%inputs]) }).ns)
		set("ranking.eval_ns."+fam.name, probe(inputs*rounds, func(i int) { f.Eval(points[i%inputs]) }).ns)
	}
}

// probePseudoBlock measures the grid cube's cell fetch for the predicates of
// the workload's own requests, each through a fresh per-query buffer.
func probePseudoBlock(rng *rand.Rand, cube *gridcube.Cube, ops []workload.Op, set func(string, float64)) {
	type fetch struct {
		cb   *gridcube.Cuboid
		vals []int32
		pid  int
	}
	const n = 2000
	var fetches []fetch
	blocks := cube.Meta().NumBlocks()
	for i := 0; i < len(ops) && len(fetches) < n; i++ {
		if ops[i].Kind != workload.OpQuery {
			continue
		}
		cb := cube.Cuboid(ops[i].Cond.Dims())
		if cb == nil {
			continue
		}
		vals := make([]int32, len(cb.Dims()))
		for j, d := range cb.Dims() {
			vals[j] = ops[i].Cond[d]
		}
		fetches = append(fetches, fetch{cb, vals, cb.PseudoOf(gridcube.BID(rng.Intn(blocks)))})
	}
	if len(fetches) == 0 {
		return
	}
	ctr := stats.New()
	res := probe(len(fetches), func(i int) {
		f := fetches[i]
		f.cb.GetPseudoBlock(f.vals, f.pid, pager.NewBuffer(f.cb.Store()), ctr)
	})
	set("gridcube.pseudoblock_us", res.ns/1e3)
}
