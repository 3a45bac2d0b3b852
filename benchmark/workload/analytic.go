package workload

import (
	"context"
	"math/rand"
	"time"

	"rankcube"
)

var analyticMix = Spec{
	Name: "analytic-mix",
	Why: "The same hindex/signature/pager layers driven by other loops (skyline, rank join over cube scans, " +
		"index-merge over B-trees) on uniform predicates with little cell reuse and hard, anti-correlated skylines.",
	Engine:   AnalyticEngines,
	Clients:  1,
	ReadOnly: true,
	Prefix:   200,
	Sample:   50,
	generate: generateAnalytic,
	build:    buildAnalytic,
}

// Shape of analytic-mix's relations.
const (
	analyticSessions = 1000
	analyticRows     = 100_000
	analyticCard     = 100
	analyticRank     = 3
	joinRows         = 50_000
	joinSelDims      = 2
	joinCard         = 10
	joinRank         = 2
)

// SkylineDims are the ranking dimensions every session's skyline minimizes.
var SkylineDims = []int{0, 1, 2}

// MergeDims are the ranking dimensions carrying a B-tree for index-merge.
var MergeDims = []int{0, 1}

func generateAnalytic(seed int64, scale float64) (*Data, error) {
	dataRNG := rand.New(rand.NewSource(seed))
	rel, err := newRelation(scaled(analyticRows, scale, 500), selDims, analyticCard, analyticRank,
		uniformValues(dataRNG, analyticCard), antiCorrelatedRanks(dataRNG))
	if err != nil {
		return nil, err
	}
	d := &Data{Rel: rel}
	for i := range d.Join {
		n := scaled(joinRows, scale, 500)
		side, err := newRelation(n, joinSelDims, joinCard, joinRank,
			uniformValues(dataRNG, joinCard), uniformRanks(dataRNG))
		if err != nil {
			return nil, err
		}
		keys := make([]int32, n)
		for j := range keys {
			keys[j] = int32(dataRNG.Intn(JoinKeys))
		}
		d.Join[i] = JoinSide{Rel: side, Keys: keys}
	}

	rng := rand.New(rand.NewSource(seed ^ 0x6f7073))
	val := uniformValues(rng, analyticCard)
	joinVal := uniformValues(rng, joinCard)
	d.Ops = make([]Op, scaled(analyticSessions, scale, 10))
	for i := range d.Ops {
		dims := rng.Perm(selDims)
		s := &Session{
			SkyDim: dims[0], SkyVal: val(),
			ExtraDim: dims[1], ExtraVal: val(),
			Merge:    randomFunc(rng, SqDist, len(MergeDims)),
			ScanCond: randomCond(rng, selDims, 1, val),
			ScanF:    randomFunc(rng, Linear, analyticRank),
		}
		for j := range s.JoinCond {
			s.JoinCond[j] = randomCond(rng, joinSelDims, 1, joinVal)
			s.JoinF[j] = randomFunc(rng, Linear, joinRank)
		}
		d.Ops[i] = Op{Kind: OpSession, Session: s}
	}
	return d, nil
}

type analytic struct {
	d        *Data
	cube     *rankcube.SignatureCube
	sky      *rankcube.SkylineEngine
	indices  []rankcube.Index
	joinCube [2]*rankcube.SignatureCube
	joinRel  [2]*rankcube.JoinRelation
	// scanPass is what one sequential pass over each relation charges — the
	// oracle side of io_saving_x for answers the benchmark recomputes
	// itself (skylines, the join).
	scanPass, joinPass int64
}

func buildAnalytic(d *Data) Instance {
	w := &analytic{d: d, cube: rankcube.BuildSignatureCube(d.Rel, rankcube.SigOptions{})}
	w.sky = rankcube.NewSkylineEngine(w.cube)
	for _, dim := range MergeDims {
		w.indices = append(w.indices, rankcube.BuildBTree(d.Rel, dim))
	}
	for i, side := range d.Join {
		w.joinCube[i] = rankcube.BuildSignatureCube(side.Rel, rankcube.SigOptions{})
		w.joinRel[i] = rankcube.NewJoinRelation(string(rune('A'+i)), side.Rel, w.joinCube[i], side.Keys, JoinKeys)
	}
	return w
}

func (w *analytic) joinParts(s *Session) []rankcube.JoinPart {
	return []rankcube.JoinPart{
		{Rel: w.joinRel[0], Cond: s.JoinCond[0], F: s.join[0]},
		{Rel: w.joinRel[1], Cond: s.JoinCond[1], F: s.join[1]},
	}
}

// sessionAnswers holds the six answers of one session.
type sessionAnswers struct {
	sky, drill, roll []rankcube.SkylineResult
	merge, scan      []rankcube.Result
	join             []rankcube.JoinResult
}

// run issues the session's six requests. Each is handed to rec with its
// metrics as it finishes.
func (w *analytic) run(ctx context.Context, s *Session, rec func(m *rankcube.Metrics, err error, digest func() uint64)) sessionAnswers {
	var a sessionAnswers
	var snap *rankcube.SkylineSnapshot
	var err error

	m := rankcube.NewMetrics()
	a.sky, snap, err = w.sky.Query(ctx, rankcube.Cond{s.SkyDim: s.SkyVal}, SkylineDims, nil, rankcube.WithMetrics(m))
	rec(m, err, func() uint64 { return DigestSkyline(a.sky) })

	m = rankcube.NewMetrics()
	a.drill, snap, err = w.sky.DrillDownQuery(ctx, snap, rankcube.Cond{s.ExtraDim: s.ExtraVal}, rankcube.WithMetrics(m))
	rec(m, err, func() uint64 { return DigestSkyline(a.drill) })

	m = rankcube.NewMetrics()
	a.roll, _, err = w.sky.RollUpQuery(ctx, snap, []int{s.SkyDim}, rankcube.WithMetrics(m))
	rec(m, err, func() uint64 { return DigestSkyline(a.roll) })

	m = rankcube.NewMetrics()
	a.merge, err = rankcube.MergeQuery(ctx, w.d.Rel, w.indices, s.merge, MergeK, rankcube.MergeOptions{}, rankcube.WithMetrics(m))
	rec(m, err, func() uint64 { return DigestResults(a.merge) })

	m = rankcube.NewMetrics()
	a.join, err = rankcube.JoinQuery(ctx, w.joinParts(s), JoinK, rankcube.WithMetrics(m))
	rec(m, err, func() uint64 { return DigestJoin(a.join) })

	m = rankcube.NewMetrics()
	a.scan, err = w.scan(ctx, s, m)
	rec(m, err, func() uint64 { return DigestResults(a.scan) })
	return a
}

// scan pulls the first ScanN tuples of a progressive, score-ordered scan.
func (w *analytic) scan(ctx context.Context, s *Session, m *rankcube.Metrics) ([]rankcube.Result, error) {
	sc, err := w.cube.OpenScan(ctx, s.ScanCond, s.scan, rankcube.WithMetrics(m))
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	out := make([]rankcube.Result, 0, ScanN)
	for len(out) < ScanN {
		res, ok, err := sc.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, res)
	}
	return out, nil
}

func (w *analytic) Exec(ctx context.Context, op *Op, r *Recorder) {
	start := time.Now()
	w.run(ctx, op.Session, r.request)
	r.readDone(start)
	r.Ops++
}

// Verify recomputes every answer of the session: skylines by pairwise
// dominance and the join by a hash join, both written here over the
// generated relations; the merge by TableScanQuery and the scan prefix by
// the cube's BaselineQuery.
func (w *analytic) Verify(ctx context.Context, op *Op) Check {
	s := op.Session
	var c Check
	failed := false
	a := w.run(ctx, s, func(m *rankcube.Metrics, err error, _ func() uint64) {
		c.EngineReads += m.TotalReads()
		if err != nil || m.Downgrades > 0 {
			failed = true
		}
	})
	c.Answers = 6
	if failed {
		c.Bad = c.Answers
		return c
	}
	if w.scanPass == 0 {
		w.scanPass = scanPassReads(ctx, w.d.Rel)
		w.joinPass = scanPassReads(ctx, w.d.Join[0].Rel) + scanPassReads(ctx, w.d.Join[1].Rel)
	}
	check := func(ok bool, oracleReads int64) {
		c.OracleReads += oracleReads
		if !ok {
			c.Bad++
		}
	}

	sky := rankcube.Cond{s.SkyDim: s.SkyVal}
	drill := rankcube.Cond{s.SkyDim: s.SkyVal, s.ExtraDim: s.ExtraVal}
	roll := rankcube.Cond{s.ExtraDim: s.ExtraVal}
	check(sameSkyline(a.sky, skylineOracle(w.d.Rel, sky, SkylineDims)), w.scanPass)
	check(sameSkyline(a.drill, skylineOracle(w.d.Rel, drill, SkylineDims)), w.scanPass)
	check(sameSkyline(a.roll, skylineOracle(w.d.Rel, roll, SkylineDims)), w.scanPass)

	om := rankcube.NewMetrics()
	want, err := rankcube.TableScanQuery(ctx, w.d.Rel, nil, s.merge, MergeK, rankcube.WithMetrics(om))
	check(err == nil && SameTopK(a.merge, want), om.TotalReads())

	check(sameJoin(a.join, joinOracle(w.d.Join, s, JoinK)), w.joinPass)

	om = rankcube.NewMetrics()
	want, err = w.cube.BaselineQuery(ctx, s.ScanCond, s.scan, ScanN, rankcube.WithMetrics(om))
	check(err == nil && SameTopK(a.scan, want), om.TotalReads())
	return c
}

// scanPassReads measures what one governed sequential pass over rel charges.
func scanPassReads(ctx context.Context, rel *rankcube.Relation) int64 {
	m := rankcube.NewMetrics()
	if _, err := rankcube.TableScanQuery(ctx, rel, nil, rankcube.Sum(0), 1, rankcube.WithMetrics(m)); err != nil {
		return 0
	}
	return m.TotalReads()
}

func (w *analytic) NoOp(ctx context.Context, opts ...rankcube.Option) error {
	_, err := w.cube.Query(ctx, nil, noOpFunc, 0, opts...)
	return err
}

func (w *analytic) MaterializedBytes() int64 {
	n := w.cube.SizeBytes() + w.joinCube[0].SizeBytes() + w.joinCube[1].SizeBytes()
	for _, idx := range w.indices {
		n += idx.Store().Bytes()
	}
	return n
}

func (w *analytic) BaseBytes() int64 {
	return relationBytes(w.d.Rel) + relationBytes(w.d.Join[0].Rel) + relationBytes(w.d.Join[1].Rel)
}
