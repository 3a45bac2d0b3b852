// Package rankcube is a Go implementation of the Ranking-Cube methodology
// (Dong Xin, "Integrating OLAP and Ranking: The Ranking-Cube Methodology",
// UIUC 2007 / ICDE 2007): efficient top-k, skyline, and rank-join query
// processing under multi-dimensional boolean selections, built on semi
// off-line materialization and semi online computation.
//
// The package offers two ranking-cube engines:
//
//   - GridCube — chapter 3's equi-depth grid partition with pseudo-block
//     cuboids and neighborhood search; supports ranking fragments for
//     relations with many selection dimensions.
//   - SignatureCube — chapter 4's hierarchical (R-tree) partition with
//     compressed signature measures, top-down branch-and-bound search, and
//     incremental maintenance.
//
// plus the chapter 5-7 extensions: index-merge for many ranking dimensions
// (MergeQuery), SPJR rank joins over multiple relations (JoinQuery), and
// skyline queries with boolean predicates (SkylineEngine).
//
// All query engines score ascending: lower is better. Express
// higher-is-better preferences by negating the function.
//
// # One generation of API
//
// Every operation on every engine is one ctx-first entry point with
// variadic options:
//
//	res, err := cube.Query(ctx, cond, f, k,
//	    rankcube.WithBudget(rankcube.Budget{MaxBlockReads: 10_000}),
//	    rankcube.WithMetrics(m),
//	    rankcube.WithTrace(tr))
//
// Queries: GridCube.Query, SignatureCube.Query, MergeQuery, JoinQuery,
// SkylineEngine.Query / DrillDownQuery / RollUpQuery, TableScanQuery, the
// cubes' BaselineQuery, and the progressive SignatureCube.OpenScan.
// Maintenance: InsertTuple / DeleteTuple on both cubes and
// GridCube.Repartition. Options: WithBudget, WithMetrics, WithTrace,
// WithSlowLogThreshold. All of them pass through one boundary, which admits
// the operation through the cube's gate (SetAdmission), takes its serving
// lock (shared for queries, exclusive for maintenance), attaches the
// context, budget and trace, contains panics, applies the degradation policy, and
// records kind, outcome, latency and block reads into the process-wide
// registry (DefaultRegistry, MetricsHandler, PublishExpvar); operations
// crossing SetSlowQueryThreshold land in the slow-query log with their span
// trees (WriteSlowQueryLog).
//
// # Robustness & degradation policy
//
// Cancellation and budgets are enforced in the pager at block-access
// granularity, so cancellation latency and budget overshoot are bounded in
// pages. Storage pages carry checksums; faults can be injected for testing
// via pager.FaultInjector. The degradation rules, in order:
//
//   - Cancellation (context canceled or deadline exceeded) always aborts
//     with ErrCanceled. It never degrades: the caller asked to stop.
//   - Storage faults (ErrPageCorrupt, ErrReadFailed,
//     ErrStructureUnavailable) and contained engine panics (ErrInternal)
//     degrade by default: the query is transparently re-answered by the
//     matching baseline scan — exact, cube-free, one sequential pass over
//     the relation's pages — and the Metrics' Downgrades counter records it.
//     Budget.DisableFallback surfaces the typed error instead.
//   - Budget trips (ErrBudgetExceeded) fail by default with partial
//     statistics intact; Budget.FallbackOnBudget opts into degrading them
//     like storage faults.
//   - Malformed requests (ErrInvalidArgument: a row that does not fit the
//     schema, a missing snapshot) and shed load (ErrOverloaded) never
//     degrade, and maintenance has no baseline to degrade to.
//
// A progressive scan cannot transparently restart, so OpenScan surfaces
// faults as typed errors from Next instead of degrading.
//
// No panic escapes the package: engine faults and bugs alike surface as
// errors matching ErrInternal at worst.
package rankcube

import (
	"fmt"

	"rankcube/internal/btree"
	"rankcube/internal/core"
	"rankcube/internal/dataset"
	"rankcube/internal/errs"
	"rankcube/internal/gridcube"
	"rankcube/internal/guard"
	"rankcube/internal/hindex"
	"rankcube/internal/joinquery"
	"rankcube/internal/ranking"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/skyline"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

// Relation is a base table with categorical selection dimensions and
// real-valued ranking dimensions.
type Relation = table.Table

// Schema describes a relation's dimensions.
type Schema = table.Schema

// TID identifies a tuple within its relation.
type TID = table.TID

// NewRelation creates an empty relation, or returns the schema's
// validation error (wrapping ErrInvalidArgument). Selection values on
// dimension d must lie in [0, selCards[d]).
func NewRelation(selNames []string, selCards []int, rankNames []string) (*Relation, error) {
	rel, err := table.New(Schema{SelNames: selNames, SelCard: selCards, RankNames: rankNames})
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, errs.ErrInvalidArgument)
	}
	return rel, nil
}

// GenerateRelation builds a seeded synthetic relation: T tuples, S selection
// dimensions of cardinality C, R ranking dimensions in [0,1] under the given
// distribution.
func GenerateRelation(T, S, R, C int, dist Distribution, seed int64) *Relation {
	return table.Generate(table.GenSpec{T: T, S: S, R: R, Card: C, Dist: dist, Seed: seed})
}

// Distribution selects the joint distribution of synthetic ranking values.
type Distribution = table.Distribution

// Synthetic data distributions.
const (
	Uniform        = table.Uniform
	Correlated     = table.Correlated
	AntiCorrelated = table.AntiCorrelated
)

// ForestCover synthesizes a relation shaped like the UCI Forest CoverType
// dataset used in the paper's experiments (12 selection dimensions with its
// cardinality profile, 3 quantized ranking dimensions).
func ForestCover(n int, seed int64) *Relation { return dataset.ForestCover(n, seed) }

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

// Cond is a conjunctive selection: dimension position → required value.
type Cond = core.Cond

// Result is one scored answer tuple.
type Result = core.Result

// Metrics collects execution statistics (block reads per structure, states,
// heap peaks). Pass nil to skip instrumentation.
type Metrics = stats.Counters

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics { return stats.New() }

// ---------------------------------------------------------------------------
// Ranking functions
// ---------------------------------------------------------------------------

// Func is a ranking function: it scores full ranking vectors and lower-
// bounds itself over boxes, the one capability the methodology requires of
// ad hoc functions.
type Func = ranking.Func

// Expr is a scoring expression tree over ranking dimensions, used to define
// ad hoc functions with automatic interval-arithmetic lower bounds. It is
// built only through the constructors below (Var, Num, Add, Sub, Mul, Sqr,
// AbsE, Scale); General compiles it once into the program that scores and
// bounds it.
type Expr = ranking.Expr

// Linear builds f = Σ weights[i]·N(attrs[i]). Weights may be negative.
func Linear(attrs []int, weights []float64) Func { return ranking.Linear(attrs, weights) }

// Sum builds the unweighted sum of the given ranking dimensions.
func Sum(attrs ...int) Func { return ranking.Sum(attrs...) }

// SqDist builds Σ (N(attrs[i]) − target[i])², the nearest-neighbor score.
func SqDist(attrs []int, target []float64) Func { return ranking.SqDist(attrs, target) }

// L1Dist builds Σ |N(attrs[i]) − target[i]|.
func L1Dist(attrs []int, target []float64) Func { return ranking.L1Dist(attrs, target) }

// General wraps an expression tree as a ranking function with interval-
// arithmetic bounds (for ad hoc shapes such as (A − B²)²).
func General(e Expr) Func { return ranking.General(e) }

// Constrained restricts inner to tuples whose dimension attr lies in
// [lo, hi]; everything else scores +Inf (the thesis' fc query class).
func Constrained(inner Func, attr int, lo, hi float64) Func {
	return ranking.Constrained(inner, attr, lo, hi)
}

// Expression constructors.
var (
	// Var references ranking dimension i in an expression.
	Var = func(i int) Expr { return ranking.Var(i) }
	// Num embeds a constant.
	Num = func(v float64) Expr { return ranking.Const(v) }
)

// Add sums expressions.
func Add(terms ...Expr) Expr { return ranking.Add(terms...) }

// Sub subtracts r from l.
func Sub(l, r Expr) Expr { return ranking.Sub(l, r) }

// Mul multiplies two expressions.
func Mul(l, r Expr) Expr { return ranking.Mul(l, r) }

// Sqr squares an expression.
func Sqr(e Expr) Expr { return ranking.Sqr(e) }

// AbsE takes an absolute value.
func AbsE(e Expr) Expr { return ranking.Abs(e) }

// Scale multiplies an expression by a constant.
func Scale(c float64, e Expr) Expr { return ranking.Scale(c, e) }

// ---------------------------------------------------------------------------
// Grid ranking cube (chapter 3)
// ---------------------------------------------------------------------------

// GridOptions configures BuildGridCube.
type GridOptions struct {
	// BlockSize is the expected tuples per base block (default 300).
	BlockSize int
	// FragmentSize F > 0 materializes ranking fragments of F selection
	// dimensions each instead of the full cube — the high-dimensional
	// configuration whose footprint grows linearly in dimension count.
	FragmentSize int
	// Groups optionally fixes the fragment grouping explicitly.
	Groups [][]int
	// CompressLists stores cell tid lists varint-delta compressed
	// (thesis §3.6.3): smaller cube, slight decode cost per access.
	CompressLists bool
}

// GridCube is the chapter-3 engine. It supports maintenance against the
// pre-computed partition (InsertTuple, DeleteTuple) with a periodic
// Repartition, and carries the serving shell: SetAdmission, AdmissionStats,
// Drain, Health, Repair.
type GridCube struct {
	c *gridcube.Cube
	serving
}

// BuildGridCube materializes a grid ranking cube (or ranking fragments)
// over rel.
func BuildGridCube(rel *Relation, opts GridOptions) *GridCube {
	g := &GridCube{c: gridcube.Build(rel, gridcube.Config{
		BlockSize:     opts.BlockSize,
		FragmentSize:  opts.FragmentSize,
		Groups:        opts.Groups,
		CompressLists: opts.CompressLists,
	})}
	g.serving = serving{ctl: g.c.Ctl(), gateName: "grid", stores: g.Stores, targets: g.repairTargets}
	return g
}

// PendingMaintenance reports accumulated inserts plus tombstones.
func (g *GridCube) PendingMaintenance() int { return guard.Shared(g.ctl, g.c.PendingMaintenance) }

// GroupsFromWorkload derives a fragment grouping from a query history
// (thesis §3.6.2): dimensions frequently queried together share a fragment
// of at most f dimensions. Feed the result to GridOptions.Groups.
func GroupsFromWorkload(history [][]int, s, f int) [][]int {
	return gridcube.GroupsFromWorkload(history, s, f)
}

// GroupsByCardinality isolates selection dimensions with cardinality ≥
// threshold into singleton fragments (thesis §3.6.2).
func GroupsByCardinality(schema Schema, f, threshold int) [][]int {
	return gridcube.GroupsByCardinality(schema, f, threshold)
}

// SizeBytes reports the materialized footprint.
func (g *GridCube) SizeBytes() int64 { return guard.Shared(g.ctl, g.c.SizeBytes) }

// ---------------------------------------------------------------------------
// Signature ranking cube (chapter 4)
// ---------------------------------------------------------------------------

// SigOptions configures BuildSignatureCube.
type SigOptions struct {
	// Fanout overrides the page-derived R-tree fanout (0 = 4 KB pages).
	Fanout int
	// Cuboids selects materialized cuboids; nil materializes all atomic
	// (single-dimension) cuboids, from which any conjunction is assembled
	// online.
	Cuboids [][]int
	// LossySignatures swaps exact signatures for per-cell bloom filters
	// (thesis §4.5): smaller measure, tuple-level re-verification at query
	// time.
	LossySignatures bool
}

// SignatureCube is the chapter-4 engine. It additionally supports
// incremental maintenance and score-ordered scans, and carries the same
// serving shell as GridCube.
type SignatureCube struct {
	c *sigcube.Cube
	serving
}

// BuildSignatureCube partitions rel with an R-tree and materializes
// signature cuboids.
func BuildSignatureCube(rel *Relation, opts SigOptions) *SignatureCube {
	s := &SignatureCube{c: sigcube.Build(rel, sigcube.Config{
		RTree:           rtree.Config{Fanout: opts.Fanout},
		Cuboids:         opts.Cuboids,
		LossySignatures: opts.LossySignatures,
	})}
	s.serving = serving{ctl: s.c.Ctl(), gateName: "sig", stores: s.Stores, targets: s.repairTargets}
	return s
}

// SizeBytes reports the signature footprint.
func (s *SignatureCube) SizeBytes() int64 { return s.c.SizeBytes() }

// ---------------------------------------------------------------------------
// Index merge (chapter 5)
// ---------------------------------------------------------------------------

// Index is a hierarchical index over a subset of ranking dimensions,
// mergeable with others to answer queries spanning many dimensions.
type Index = hindex.Index

// BuildBTree bulk-loads a B+-tree over one ranking dimension of rel.
func BuildBTree(rel *Relation, dim int) Index {
	return btree.Build(rel, dim, ranking.NewBox(rel.RankBounds()), btree.Config{})
}

// BuildRTree bulk-loads an R-tree over the given ranking dimensions.
func BuildRTree(rel *Relation, dims []int) Index {
	return rtree.Bulk(rel, dims, ranking.NewBox(rel.RankBounds()), rtree.Config{})
}

// MergeOptions configures MergeQuery.
type MergeOptions struct {
	// JoinSignature enables empty-state pruning via an m-way join-signature
	// built over the indices (PE+SIG).
	JoinSignature bool
}

// ---------------------------------------------------------------------------
// SPJR rank joins (chapter 6)
// ---------------------------------------------------------------------------

// JoinRelation is a relation participating in rank joins, carrying its
// ranking cube and join-key column.
type JoinRelation = joinquery.Relation

// NewJoinRelation wraps a relation and its signature cube with join keys
// (keys[tid] ∈ [0, keyCard)).
func NewJoinRelation(name string, rel *Relation, cube *SignatureCube, keys []int32, keyCard int) *JoinRelation {
	return joinquery.NewRelation(name, rel, cube.c, keys, keyCard)
}

// JoinPart is one relation's role in an SPJR query.
type JoinPart = joinquery.Part

// JoinResult is one joined, scored answer.
type JoinResult = joinquery.Result

// ---------------------------------------------------------------------------
// Skylines (chapter 7)
// ---------------------------------------------------------------------------

// SkylineEngine answers skyline queries with boolean predicates over a
// signature cube.
type SkylineEngine struct {
	e *skyline.Engine
}

// SkylineResult is one skyline member with its preference-space
// coordinates.
type SkylineResult = skyline.Result

// SkylineSnapshot preserves a finished query for drill-down/roll-up reuse:
// its candidate basis and the partition pages its navigation chain has
// read. It belongs to the cube it was taken on; navigating it on
// another cube fails with ErrInvalidArgument.
type SkylineSnapshot = skyline.Snapshot

// NewSkylineEngine wraps a signature cube.
func NewSkylineEngine(cube *SignatureCube) *SkylineEngine {
	return &SkylineEngine{e: skyline.NewEngine(cube.c)}
}
