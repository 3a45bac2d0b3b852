// Package workload generates the benchmark's inputs from a seed, builds each
// workload's structures, and drives requests through rankcube's public,
// canonical API only (Query, BaselineQuery, InsertTuple, DeleteTuple,
// OpenScan, MergeQuery, JoinQuery, SkylineEngine.*Query, TableScanQuery,
// With*, SetAdmission, SizeBytes). It must not import rankcube/internal/...:
// the end-to-end numbers have to survive any internal refactor they judge.
package workload

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"rankcube"
)

// Spec describes one workload. Sizes are the full-scale ones; Generate
// multiplies rows and op counts by its scale argument (tests run at 1/100).
type Spec struct {
	Name string
	// Why records what the workload exists to show.
	Why string
	// Engine says which structures the workload builds, for the layer
	// tracer's twin.
	Engine Engine
	// Clients is the number of closed-loop client goroutines; client c runs
	// ops i ≡ c (mod Clients).
	Clients int
	// ReadOnly op lists are replayed cyclically until the window closes; a
	// list with writes cannot be replayed, so it is generated long enough to
	// outlast the window several times over.
	ReadOnly bool
	// Prefix is how many leading ops feed the count metrics
	// (reads_per_query, space_amp): a fixed number, so counts repeat exactly
	// however many ops the window completes.
	Prefix int
	// Sample is how many ops are re-answered against the scan oracle after
	// the window: a fixed count, not a fraction.
	Sample int

	generate func(seed int64, scale float64) (*Data, error)
	build    func(d *Data) Instance
}

// Engine names the structures a workload builds.
type Engine uint8

// The three structure sets: a signature cube, a grid cube, or analytic-mix's
// signature cube with skyline engine, B-tree pair and join pair.
const (
	SignatureEngine Engine = iota
	GridEngine
	AnalyticEngines
)

// Data is one workload's generated input: relations and the op list.
type Data struct {
	Rel *rankcube.Relation
	// Join is analytic-mix's join pair.
	Join [2]JoinSide
	Ops  []Op
}

// JoinSide is one relation of the join pair with its join-key column.
type JoinSide struct {
	Rel  *rankcube.Relation
	Keys []int32
}

// JoinKeys is the join-key domain size of the join pair.
const JoinKeys = 1000

// Generate makes the workload's inputs from seed: the same seed gives the
// same relations and the same op list.
func (s Spec) Generate(seed int64, scale float64) (*Data, error) {
	d, err := s.generate(seed, scale)
	if err != nil {
		return nil, err
	}
	prepare(d.Ops)
	return d, nil
}

// Build materializes the workload's structures over d through the public
// constructors.
func (s Spec) Build(d *Data) Instance { return s.build(d) }

// scaled applies scale to a full-scale count, keeping at least min.
func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		return min
	}
	return v
}

// Instance is one built workload.
type Instance interface {
	// Exec issues op through the public API and records each request.
	Exec(ctx context.Context, op *Op, r *Recorder)
	// Verify re-answers op on the current state through the engine and
	// through the scan oracle and compares the answers.
	Verify(ctx context.Context, op *Op) Check
	// NoOp issues the cheapest request the workload's primary engine
	// accepts (no predicate, k = 0): what it costs is the serving boundary.
	NoOp(ctx context.Context, opts ...rankcube.Option) error
	// MaterializedBytes is the footprint of everything built on top of the
	// base relations; BaseBytes is the relations' own stored width.
	MaterializedBytes() int64
	BaseBytes() int64
}

// Check is the outcome of verifying one op.
type Check struct {
	// Answers compared, and how many failed (error, shed, downgrade, or a
	// differing answer).
	Answers, Bad int
	// Governed block reads the engine and the scan oracle charged.
	EngineReads, OracleReads int64
}

// Recorder accumulates what one client observed. It is not safe for
// concurrent use; each client goroutine owns one.
type Recorder struct {
	// QueryNS and WriteNS hold one latency per read / write op. A session is
	// one read op of six requests.
	QueryNS, WriteNS []int64
	// Ops counts finished ops, reads and writes.
	Ops int
	// Reads sums the governed block reads of read requests.
	Reads int64
	// Failed counts requests that returned an error (ErrOverloaded
	// included), answered through a silent downgrade to a scan, or — for
	// writes — did not take effect as generated.
	Failed int
	// Kept, when Keep is set, receives every read request's answer, so two
	// executions of one op prefix can be compared request by request.
	Keep bool
	Kept []Answer
}

// Answer is what one read request returned and charged: a digest of the
// result and the governed block reads.
type Answer struct {
	Digest uint64
	Reads  int64
}

// NewRecorder preallocates for the expected request counts so the timed
// window does not grow slices.
func NewRecorder(queries, writes int) *Recorder {
	return &Recorder{QueryNS: make([]int64, 0, queries), WriteNS: make([]int64, 0, writes)}
}

// readDone records the latency of one finished read op — one request, or
// on analytic-mix the six of a session.
func (r *Recorder) readDone(start time.Time) {
	r.QueryNS = append(r.QueryNS, int64(time.Since(start)))
}

// request folds one finished read request into the recorder.
func (r *Recorder) request(m *rankcube.Metrics, err error, digest func() uint64) {
	r.Reads += m.TotalReads()
	if err != nil || m.Downgrades > 0 {
		r.Failed++
	}
	if r.Keep {
		r.Kept = append(r.Kept, Answer{Digest: digest(), Reads: m.TotalReads()})
	}
}

func (r *Recorder) write(start time.Time, m *rankcube.Metrics, err error, applied bool) {
	r.WriteNS = append(r.WriteNS, int64(time.Since(start)))
	if err != nil || !applied || m.Downgrades > 0 {
		r.Failed++
	}
}

// Snapshot is the part of a Recorder the fixed op prefix reports.
type Snapshot struct {
	Queries int
	Reads   int64
}

// Snapshot captures the recorder's counts so far.
func (r *Recorder) Snapshot() Snapshot {
	return Snapshot{Queries: len(r.QueryNS), Reads: r.Reads}
}

// DigestResults folds a top-k answer (ids and score bits, in order) into one
// word.
func DigestResults(res []rankcube.Result) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, r := range res {
		binary.LittleEndian.PutUint32(b[:4], uint32(r.TID))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(r.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// DigestSkyline folds a skyline answer into one word.
func DigestSkyline(res []rankcube.SkylineResult) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, r := range res {
		binary.LittleEndian.PutUint32(b[:], uint32(r.TID))
		h.Write(b[:])
	}
	return h.Sum64()
}

// DigestJoin folds a join answer into one word.
func DigestJoin(res []rankcube.JoinResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range res {
		for _, tid := range r.TIDs {
			binary.LittleEndian.PutUint32(b[:4], uint32(tid))
			h.Write(b[:4])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// All lists the four workloads in reporting order.
var All = []Spec{sigTopK, gridServe, sigChurn, analyticMix}

// ByName finds a workload.
func ByName(name string) (Spec, error) {
	for _, s := range All {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q: %w", name, rankcube.ErrInvalidArgument)
}
