package workload

import (
	"context"
	"math/rand"
	"time"

	"rankcube"
)

// The three top-k workloads share one schema shape (three selection
// dimensions, zipfian values) and one instance type; they differ in the
// engine behind it, the predicate width, the function mix and whether writes
// run beside the reads.

var sigTopK = Spec{
	Name: "sig-topk",
	Why: "Engine-bound read path: sigcube search loop, signature/bitvec decode, rtree, heap and ranking " +
		"do nearly all the work of a multi-millisecond query; the serving boundary is noise here.",
	Clients:  1,
	ReadOnly: true,
	Prefix:   1500,
	Sample:   200,
	generate: func(seed int64, scale float64) (*Data, error) {
		return generateTopK(seed, topKShape{rows: scaled(200_000, scale, 500), card: 100, rankDims: 3,
			ops: scaled(4000, scale, 40), maxCondDims: 2,
			kinds: []FuncKind{Linear, SqDist, General}})
	},
	build: func(d *Data) Instance {
		return &topK{rel: d.Rel, cube: rankcube.BuildSignatureCube(d.Rel, rankcube.SigOptions{})}
	},
}

var gridServe = Spec{
	Name: "grid-serve",
	Why: "Cheap queries at two clients: gridcube, pager locks/CRC and the serving shell (guard, admission, " +
		"obs registry mutex) carry the weight; signature, rtree and sigcube do nothing.",
	Engine:   GridEngine,
	Clients:  2,
	ReadOnly: true,
	Prefix:   80_000,
	Sample:   200,
	generate: func(seed int64, scale float64) (*Data, error) {
		// 50 % Linear / 40 % SqDist / 10 % General: the General tenth has no
		// declared convexity, so it takes the grid cube's exhaustive search
		// and forms the latency tail.
		return generateTopK(seed, topKShape{rows: scaled(200_000, scale, 500), card: 20, rankDims: 2,
			ops: scaled(100_000, scale, 200), maxCondDims: 3,
			kinds: []FuncKind{Linear, Linear, Linear, Linear, Linear, SqDist, SqDist, SqDist, SqDist, General}})
	},
	build: func(d *Data) Instance {
		cube := rankcube.BuildGridCube(d.Rel, rankcube.GridOptions{})
		// Two clients against MaxInFlight 2 never shed; the gate is here so
		// its bookkeeping is on the measured path.
		cube.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: 2, MaxWaiting: 2})
		return &topK{rel: d.Rel, cube: cube}
	},
}

var sigChurn = Spec{
	Name: "sig-churn",
	Why: "Writes beside reads on the same layers: signature encode vs decode, pager overwrite vs read, " +
		"rtree insert vs search, exclusive vs shared guard. A read-side gain paid for by writes shows here.",
	Clients: 1,
	Prefix:  2500,
	Sample:  200,
	generate: func(seed int64, scale float64) (*Data, error) {
		return generateTopK(seed, topKShape{rows: scaled(50_000, scale, 500), card: 100, rankDims: 3,
			ops: scaled(24_000, scale, 100), maxCondDims: 2, writeEvery: 5,
			kinds: []FuncKind{Linear, SqDist, General}})
	},
	build: func(d *Data) Instance {
		cube := rankcube.BuildSignatureCube(d.Rel, rankcube.SigOptions{})
		return &topK{rel: d.Rel, cube: cube, sig: cube}
	},
}

const selDims = 3

// dimOrders lists the orders in which a predicate may take up the selection
// dimensions; a predicate over n of them uses the first n of one order.
var dimOrders = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

type topKShape struct {
	rows, card, rankDims int
	ops                  int
	// maxCondDims: predicates constrain 1..maxCondDims dimensions.
	maxCondDims int
	// writeEvery > 0 makes every writeEvery-th op a write, alternating
	// insert and delete (5 → 80 % queries, 10 % inserts, 10 % deletes).
	writeEvery int
	// kinds is the function-family mix: each query picks one entry, so
	// repeating an entry weights it.
	kinds []FuncKind
}

func generateTopK(seed int64, sh topKShape) (*Data, error) {
	dataRNG := rand.New(rand.NewSource(seed))
	rel, err := newRelation(sh.rows, selDims, sh.card, sh.rankDims,
		zipfValues(dataRNG, sh.card), uniformRanks(dataRNG))
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed ^ 0x6f7073)) // "ops": a stream of its own
	val := zipfValues(rng, sh.card)
	rank := uniformRanks(rng)
	points := newQuasi(rng)
	cdf := zipfCDF(sh.card)
	// live tracks the tuple ids a delete may name: originals and inserts
	// that no earlier delete removed. Ids are assigned sequentially.
	live := make([]rankcube.TID, sh.rows)
	for i := range live {
		live[i] = rankcube.TID(i)
	}
	next := rankcube.TID(sh.rows)

	ops := make([]Op, sh.ops)
	queries, writes := 0, 0
	for i := range ops {
		op := &ops[i]
		if sh.writeEvery > 0 && i%sh.writeEvery == 0 {
			if writes%2 == 0 {
				op.Kind = OpInsert
				op.Sel = []int32{val(), val(), val()}
				op.Rank = make([]float64, sh.rankDims)
				rank(op.Rank)
				op.TID = next
				live = append(live, next)
				next++
			} else {
				op.Kind = OpDelete
				j := rng.Intn(len(live))
				op.TID = live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			writes++
			continue
		}
		// One quasi-random point decides everything about the query (see
		// quasi for why): u[0] the predicate's width, u[1] its dimensions,
		// u[2..4] their values, u[5] the function family, u[6..8] its
		// parameters, u[9] k.
		u := points.point(queries)
		queries++
		op.Kind = OpQuery
		op.Cond = rankcube.Cond{}
		for j, d := range dimOrders[pick(u[1], len(dimOrders))][:1+pick(u[0], sh.maxCondDims)] {
			op.Cond[d] = quantile(cdf, u[2+j])
		}
		op.F = newFunc(sh.kinds[pick(u[5], len(sh.kinds))], sh.rankDims, u[6:9])
		op.K = kMix[pick(u[9], len(kMix))]
	}
	return &Data{Rel: rel, Ops: ops}, nil
}

// topKEngine is what GridCube and SignatureCube have in common.
type topKEngine interface {
	Query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error)
	BaselineQuery(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int, opts ...rankcube.Option) ([]rankcube.Result, error)
	SizeBytes() int64
}

type topK struct {
	rel  *rankcube.Relation
	cube topKEngine
	// sig is the cube again when the workload writes (grid cubes are
	// maintained by periodic repartition, not per tuple).
	sig *rankcube.SignatureCube
}

func (w *topK) Exec(ctx context.Context, op *Op, r *Recorder) {
	m := rankcube.NewMetrics()
	start := time.Now()
	switch op.Kind {
	case OpQuery:
		res, err := w.cube.Query(ctx, op.Cond, op.f, op.K, rankcube.WithMetrics(m))
		r.readDone(start)
		r.request(m, err, func() uint64 { return DigestResults(res) })
	case OpInsert:
		tid, err := w.sig.InsertTuple(ctx, op.Sel, op.Rank, rankcube.WithMetrics(m))
		r.write(start, m, err, tid == op.TID)
	case OpDelete:
		ok, err := w.sig.DeleteTuple(ctx, op.TID, rankcube.WithMetrics(m))
		r.write(start, m, err, ok)
	}
	r.Ops++
}

// Verify compares the cube's answer with a governed sequential scan: of the
// generated relation when the workload is read-only, and the cube's own
// delete-aware BaselineQuery (nearly three times slower per pass) when it
// writes, because only that one stays valid after churn.
func (w *topK) Verify(ctx context.Context, op *Op) Check {
	em, om := rankcube.NewMetrics(), rankcube.NewMetrics()
	got, err := w.cube.Query(ctx, op.Cond, op.f, op.K, rankcube.WithMetrics(em))
	var want []rankcube.Result
	var oerr error
	if w.sig != nil {
		want, oerr = w.cube.BaselineQuery(ctx, op.Cond, op.f, op.K, rankcube.WithMetrics(om))
	} else {
		want, oerr = rankcube.TableScanQuery(ctx, w.rel, op.Cond, op.f, op.K, rankcube.WithMetrics(om))
	}
	c := Check{Answers: 1, EngineReads: em.TotalReads(), OracleReads: om.TotalReads()}
	if err != nil || oerr != nil || em.Downgrades > 0 || !SameTopK(got, want) {
		c.Bad = 1
	}
	return c
}

func (w *topK) NoOp(ctx context.Context, opts ...rankcube.Option) error {
	_, err := w.cube.Query(ctx, nil, noOpFunc, 0, opts...)
	return err
}

var noOpFunc = rankcube.Sum(0)

func (w *topK) MaterializedBytes() int64 { return w.cube.SizeBytes() }

func (w *topK) BaseBytes() int64 { return relationBytes(w.rel) }

func relationBytes(rel *rankcube.Relation) int64 {
	return int64(rel.Len()) * int64(rel.RowBytes())
}
