package rankcube

// The ctx-first API. Every operation of every engine is one entry point
// taking a context and variadic Options, and every one of them crosses the
// same boundary — begin / finish, with runQuery between them for the batch
// forms — which admits and locks, builds the execution context the engines
// run against (context, budget and trace fixed in it), enforces the budget,
// applies the degradation policy, copies the statistics out into the caller's
// Metrics, records the operation into the process-wide metrics registry, and
// feeds the slow-query log.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/gridcube"
	"rankcube/internal/guard"
	"rankcube/internal/indexmerge"
	"rankcube/internal/joinquery"
	"rankcube/internal/obs"
	"rankcube/internal/sigcube"
	"rankcube/internal/skyline"
	"rankcube/internal/stats"
)

// Option configures one query. Options compose left to right:
//
//	cube.Query(ctx, cond, f, k, rankcube.WithBudget(b), rankcube.WithMetrics(m))
type Option func(*queryConfig)

// queryConfig is the resolved per-query configuration.
type queryConfig struct {
	budget  Budget
	metrics *Metrics
	trace   *Trace
	slow    time.Duration // negative = inherit DefaultSlowLog's threshold

	// ctls are the serving controls of every structure the operation
	// touches, set by the entry point (not an Option): queries are admitted
	// through each control's gate and hold each control shared for the
	// whole operation, fallback included; maintenance (write=true) holds
	// them exclusive and bypasses admission — the exclusive lock already
	// serializes it, and shedding maintenance would lose data, not load.
	ctls  []*guard.RW
	write bool
}

// applyOptions folds opts into the config of an operation over the given
// serving controls. Nil options are ignored.
func applyOptions(opts []Option, ctls ...*guard.RW) queryConfig {
	cfg := queryConfig{slow: -1, ctls: ctls}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithBudget bounds the query's resource consumption and degradation
// policy (see Budget).
func WithBudget(b Budget) Option {
	return func(c *queryConfig) { c.budget = b }
}

// WithMetrics adds the query's execution statistics to m once the query is
// over — when the entry point returns; for OpenScan, at Close — partial
// statistics of an aborted query included. The query itself runs against a
// collector of its own, so m never carries a context, a budget or a trace and
// may be reused across queries; a trace (WithTrace) is the live view.
func WithMetrics(m *Metrics) Option {
	return func(c *queryConfig) { c.metrics = m }
}

// WithTrace records the query's execution as a span tree on tr: every
// engine phase becomes a span, and every governed block read, retry,
// heap observation, and downgrade is attributed to the innermost open
// span. Render the result with tr.Render(). The per-span read totals sum
// exactly to the reads the query charged its Metrics.
func WithTrace(tr *Trace) Option {
	return func(c *queryConfig) { c.trace = tr }
}

// WithSlowLogThreshold overrides the process-wide slow-query threshold
// (SetSlowQueryThreshold) for this query only. Zero disables slow
// logging for the query; a positive d admits it into the slow-query log
// when its wall time reaches d.
func WithSlowLogThreshold(d time.Duration) Option {
	return func(c *queryConfig) { c.slow = max(d, 0) }
}

// classifyOutcome maps a query's final state onto the registry's
// outcome breakdown.
func classifyOutcome(err error, degraded bool) obs.Outcome {
	switch {
	case err == nil && degraded:
		return obs.OutcomeDegraded
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, errs.ErrCanceled):
		return obs.OutcomeCanceled
	case errors.Is(err, errs.ErrBudgetExceeded):
		return obs.OutcomeBudget
	case errors.Is(err, errs.ErrOverloaded):
		return obs.OutcomeOverloaded
	default:
		return obs.OutcomeError
	}
}

// operation is the open half of the boundary: what an admitted operation
// holds from begin until finish. Batch entry points hold it for one
// runQuery call; a GovernedScanner holds it until Close.
type operation struct {
	kind    string
	m       *Metrics // the caller's (WithMetrics), or nil
	tr      *Trace   // the caller's, or a private one the slow log dumps
	obs     stats.Observer
	slow    time.Duration
	release func() // the serving locks and admission slots; nil when none

	// ctr is the operation's execution context: what the attempt or the scan
	// runs against, governed by ctx and the budget, observed by tr. It holds
	// exactly what the operation did — a fallback's context is merged into
	// it — and finish records it and merges it into m.
	ctr     *Metrics
	start   time.Time
	endRoot func()
}

// begin admits the operation and opens its books. Admission and locking
// come first: a shed query must cost nothing but its rejection, and the
// locks must span the attempt and the fallback alike so a degraded answer
// reads the same consistent structures. Then it resolves the trace (creating
// a private one when only the slow log needs it), builds the operation's
// execution context and opens the root span.
func begin(ctx context.Context, kind string, cfg queryConfig) (operation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var release func()
	if len(cfg.ctls) > 0 {
		if cfg.write {
			release = guard.LockExclusive(cfg.ctls)
		} else {
			var err error
			if release, err = guard.AcquireShared(ctx, cfg.ctls); err != nil {
				obs.Default().RecordQuery(kind, classifyOutcome(err, false), 0, nil, 0, 0)
				return operation{}, err
			}
		}
	}
	op := operation{kind: kind, m: cfg.metrics, tr: cfg.trace, slow: cfg.slow, release: release}
	if op.slow < 0 {
		op.slow = obs.DefaultSlowLog().Threshold()
	}
	if op.tr == nil && op.slow > 0 {
		op.tr = obs.NewTrace()
	}
	if op.tr != nil {
		op.obs = op.tr
	}
	op.ctr = stats.Governed(ctx, cfg.budget.limits(), op.obs)
	op.start = time.Now()
	op.endRoot = op.ctr.StartSpan(kind)
	return op, nil
}

// finish is the closing half: it seals the root span and the trace, copies
// the operation's statistics out into the caller's Metrics, records the
// operation — kind, outcome, latency, what it read — into the default
// registry, admits an offender into the slow-query log, and lets go of the
// locks and the admission slots.
func (op *operation) finish(err error) {
	if op.release != nil {
		defer op.release()
	}
	op.endRoot()
	if op.tr != nil {
		op.tr.Finish()
	}
	op.m.Merge(op.ctr)
	dur := time.Since(op.start)
	outcome := classifyOutcome(err, op.ctr.Downgrades > 0)
	reads := map[Structure]int64{} // on the stack: RecordQuery does not keep it
	for s, n := range op.ctr.ReadCounts() {
		reads[Structure(s)] = n
	}
	obs.Default().RecordQuery(op.kind, outcome, dur, reads, op.ctr.Retries, op.ctr.Downgrades)

	if op.slow > 0 && dur >= op.slow {
		var errText string
		if err != nil {
			errText = err.Error()
		}
		obs.DefaultSlowLog().Record(obs.SlowEntry{
			At: time.Now(), Kind: op.kind, Dur: dur,
			Outcome: outcome, Err: errText, Tree: op.tr.Render(),
		})
		obs.Default().RecordSlowQuery()
	}
}

// runQuery is the one boundary every batch entry point passes through:
// begin, attempt under ctx and the budget, degrade to fallback per the
// Budget policy, finish. fallback may be nil for operations that never
// degrade (maintenance, baselines); it runs against a context of its own,
// which no budget limits — a full scan is the floor cost of an exact answer —
// merged into the operation's when it ends.
func runQuery[T any](ctx context.Context, kind string, cfg queryConfig,
	attempt func(m *Metrics) (T, error),
	fallback func(m *Metrics) (T, error),
) (out T, err error) {
	op, err := begin(ctx, kind, cfg)
	if err != nil {
		return out, err
	}
	defer func() { op.finish(err) }()

	out, err = runGoverned(op.ctr, attempt)
	if fallback != nil && cfg.budget.shouldDegrade(err) {
		defer op.ctr.StartSpan("fallback")()
		op.ctr.AddDowngrade()
		m := stats.Governed(ctx, stats.Limits{}, op.obs)
		defer op.ctr.Merge(m)
		out, err = runGoverned(m, fallback)
	}
	return out, err
}

// maintain takes one maintenance operation through runQuery with ctl held
// exclusively. Maintenance never degrades: no baseline could apply a write.
func maintain[T any](ctx context.Context, kind string, ctl *guard.RW, opts []Option, apply func(m *Metrics) T) (T, error) {
	cfg := applyOptions(opts, ctl)
	cfg.write = true
	return runQuery(ctx, kind, cfg, func(m *Metrics) (T, error) { return apply(m), nil }, nil)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

// Query answers a multi-dimensional top-k query under ctx. On storage
// faults (and, with Budget.FallbackOnBudget, budget trips) it
// transparently re-answers from a tombstone-aware sequential scan,
// recording the downgrade.
func (g *GridCube) Query(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	q := gridcube.Query{Cond: cond, F: f, K: k}
	return runQuery(ctx, "grid.topk", applyOptions(opts, g.ctl),
		func(m *Metrics) ([]Result, error) { checkFunc(f, g.c.Table()); return g.c.TopK(q, m) },
		func(m *Metrics) ([]Result, error) { return g.c.ScanTopK(q, m), nil })
}

// BaselineQuery answers the same query as Query by the cube's governed,
// tombstone-aware sequential scan — the exact floor the degradation policy
// falls back to, exposed so callers (and the chaos harness) can crosscheck
// cube answers against ground truth under the same admission gate and
// shared lock. It never degrades further.
func (g *GridCube) BaselineQuery(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	q := gridcube.Query{Cond: cond, F: f, K: k}
	return runQuery(ctx, "grid.baseline", applyOptions(opts, g.ctl),
		func(m *Metrics) ([]Result, error) { checkFunc(f, g.c.Table()); return g.c.ScanTopK(q, m), nil },
		nil)
}

// InsertTuple adds a tuple into the cube using the pre-computed partition
// (thesis §1.3.1); call Repartition periodically to restore balance.
// Maintenance is single-writer: it holds the cube's serving control
// exclusively, waiting out in-flight queries and excluding new ones, and
// never degrades — a row that does not fit the schema is refused with
// ErrInvalidArgument and leaves the cube as it was.
func (g *GridCube) InsertTuple(ctx context.Context, sel []int32, rank []float64, opts ...Option) (TID, error) {
	return maintain(ctx, "grid.insert", g.ctl, opts, func(*Metrics) TID { return g.c.Insert(sel, rank) })
}

// DeleteTuple tombstones a tuple until the next Repartition, with the same
// single-writer discipline as InsertTuple. It reports whether the tuple
// existed and was not already deleted.
func (g *GridCube) DeleteTuple(ctx context.Context, tid TID, opts ...Option) (bool, error) {
	return maintain(ctx, "grid.delete", g.ctl, opts, func(*Metrics) bool { return g.c.Delete(tid) })
}

// Repartition rebuilds the cube over the surviving tuples, returning the
// old-to-new tuple id mapping when deletions compacted the relation. It
// holds the serving control exclusively for the whole rebuild.
func (g *GridCube) Repartition(ctx context.Context, opts ...Option) (map[TID]TID, error) {
	return maintain(ctx, "grid.repartition", g.ctl, opts, func(*Metrics) map[TID]TID { return g.c.Repartition() })
}

// Query answers a multi-dimensional top-k query under ctx, degrading to
// a delete-aware sequential scan on storage faults as GridCube.Query
// does.
func (s *SignatureCube) Query(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	return runQuery(ctx, "sig.topk", applyOptions(opts, s.ctl),
		func(m *Metrics) ([]Result, error) { checkFunc(f, s.c.Table()); return s.c.TopK(cond, f, k, m) },
		func(m *Metrics) ([]Result, error) { return s.c.ScanTopK(cond, f, k, m), nil })
}

// BaselineQuery answers the same query as Query by the cube's governed,
// delete-aware sequential scan — ground truth for crosschecking, under the
// same admission gate and shared lock. It never degrades further.
func (s *SignatureCube) BaselineQuery(ctx context.Context, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	return runQuery(ctx, "sig.baseline", applyOptions(opts, s.ctl),
		func(m *Metrics) ([]Result, error) { checkFunc(f, s.c.Table()); return s.c.ScanTopK(cond, f, k, m), nil },
		nil)
}

// InsertTuple appends a tuple and incrementally maintains all signatures
// under ctx. Maintenance never degrades — there is no baseline that
// could maintain the cube — so faults surface as typed errors:
// ErrInvalidArgument for a row that does not fit the schema (the cube is
// left as it was), ErrStructureUnavailable when the partition does not
// support incremental maintenance, storage errors when maintenance I/O
// faults.
func (s *SignatureCube) InsertTuple(ctx context.Context, sel []int32, rank []float64, opts ...Option) (TID, error) {
	return maintain(ctx, "sig.insert", s.ctl, opts, func(m *Metrics) TID { return s.c.Insert(sel, rank, m) })
}

// DeleteTuple removes a tuple from the partition and signatures under
// ctx, with the same no-degradation error contract as InsertTuple.
func (s *SignatureCube) DeleteTuple(ctx context.Context, tid TID, opts ...Option) (bool, error) {
	return maintain(ctx, "sig.delete", s.ctl, opts, func(m *Metrics) bool { return s.c.Delete(tid, m) })
}

// OpenScan opens a governed, panic-contained score-ascending iterator
// over tuples matching cond — the rank-aware selection operator rank
// joins pull from. Unlike the batch entry points a stream cannot
// transparently degrade (it cannot restart without re-emitting), so
// faults surface as typed errors from Next. The scanner reads the cube
// progressively until Close, so it holds the open half of the boundary for
// its whole lifetime: admitted through the gate, the shared lock held —
// maintenance waits for open scans to finish — and one execution context
// under ctx, the budget and the trace. Close runs the closing half: the
// scan's statistics reach the WithMetrics collector at Close, not during the
// scan.
func (s *SignatureCube) OpenScan(ctx context.Context, cond Cond, f Func, opts ...Option) (*GovernedScanner, error) {
	cfg := applyOptions(opts, s.ctl)
	op, err := begin(ctx, "sig.scan", cfg)
	if err != nil {
		return nil, err
	}
	sc, err := contained(func() (*sigcube.Scanner, error) { checkFunc(f, s.c.Table()); return s.c.Scan(cond, f, op.ctr) })
	if err != nil {
		op.finish(err)
		return nil, err
	}
	return &GovernedScanner{s: sc, op: op}, nil
}

// MergeQuery answers a top-k query whose function spans several
// hierarchical indices by progressive index-merge (chapter 5). rel
// provides the tuple count for join-signature construction when
// requested. Configuration errors (no indices, uncovered ranking
// dimensions) surface directly; runtime storage faults degrade to a full
// table scan, which is exact because index-merge queries carry no
// boolean predicate.
func MergeQuery(ctx context.Context, rel *Relation, indices []Index, f Func, k int, mopts MergeOptions, opts ...Option) ([]Result, error) {
	return runQuery(ctx, "merge.topk", applyOptions(opts),
		func(m *Metrics) ([]Result, error) {
			checkFunc(f, rel)
			var mo indexmerge.Options
			if mopts.JoinSignature {
				endBuild := m.StartSpan("joinsig-build")
				js, jerr := indexmerge.BuildJoinSignature(indices, rel.Len(), indexmerge.JoinSigConfig{})
				endBuild()
				if jerr != nil {
					return nil, jerr
				}
				mo.Pruner = js
			}
			return indexmerge.TopK(indices, f, k, mo, m)
		},
		func(m *Metrics) ([]Result, error) {
			return core.ScanTopK(core.NewHeapFile(rel, 0), nil, nil, f, k, m), nil
		})
}

// JoinQuery answers a multi-relational top-k query under ctx: equality
// join on the shared key domain, per-relation boolean conditions,
// combined score = sum of per-relation scores. When a member relation's
// cube faults mid-join, the query degrades to an exact brute-force hash
// join over sequential scans of the participating relations.
func JoinQuery(ctx context.Context, parts []JoinPart, k int, opts ...Option) ([]JoinResult, error) {
	cfg := applyOptions(opts)
	// A join spans several cubes; their controls are acquired in the
	// process-wide ascending-ID order (guard.Order) so two joins over
	// overlapping relation sets can never deadlock against a waiting
	// writer.
	for _, p := range parts {
		if p.Rel != nil && p.Rel.Cube != nil {
			cfg.ctls = append(cfg.ctls, p.Rel.Cube.Ctl())
		}
	}
	q := joinquery.Query{Parts: parts, K: k}
	return runQuery(ctx, "join.topk", cfg,
		func(m *Metrics) ([]JoinResult, error) { return joinquery.Execute(q, joinquery.Options{}, m) },
		func(m *Metrics) ([]JoinResult, error) { return joinquery.BruteForce(q, m) })
}

// skyOut bundles the skyline result pair through runQuery.
type skyOut struct {
	res  []SkylineResult
	snap *SkylineSnapshot
}

func sky(res []SkylineResult, snap *SkylineSnapshot, err error) (skyOut, error) {
	return skyOut{res, snap}, err
}

// run takes one skyline operation through the boundary, under the shared
// lock of the engine's cube.
func (s *SkylineEngine) run(ctx context.Context, kind string, opts []Option,
	attempt, fallback func(m *Metrics) (skyOut, error)) ([]SkylineResult, *SkylineSnapshot, error) {
	out, err := runQuery(ctx, kind, applyOptions(opts, s.e.Cube().Ctl()), attempt, fallback)
	return out.res, out.snap, err
}

// Query computes the skyline of the tuples matching cond under ctx,
// minimizing the given ranking dimensions. A non-nil target asks for the
// dynamic skyline in |x−target| space. On storage faults it degrades to
// an exact sequential-scan skyline; the returned snapshot is then marked
// degraded and navigation (drill-down/roll-up) restarts from scratch
// instead of reusing the candidate basis.
func (s *SkylineEngine) Query(ctx context.Context, cond Cond, dims []int, target []float64, opts ...Option) ([]SkylineResult, *SkylineSnapshot, error) {
	q := skyline.Query{Cond: cond, Dims: dims, Target: target}
	return s.run(ctx, "skyline", opts,
		func(m *Metrics) (skyOut, error) { return sky(s.e.Skyline(q, m)) },
		func(m *Metrics) (skyOut, error) { return sky(s.e.ScanSkyline(q, m)) })
}

// DrillDownQuery tightens the previous query with extra predicates,
// reusing its candidate basis, with the same degradation policy as
// Query (the fallback answers the tightened query by sequential scan).
func (s *SkylineEngine) DrillDownQuery(ctx context.Context, prev *SkylineSnapshot, extra Cond, opts ...Option) ([]SkylineResult, *SkylineSnapshot, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("rankcube: drill-down requires a previous snapshot: %w", errs.ErrInvalidArgument)
	}
	return s.run(ctx, "skyline.drilldown", opts,
		func(m *Metrics) (skyOut, error) { return sky(s.e.DrillDown(prev, extra, m)) },
		func(m *Metrics) (skyOut, error) {
			q, qerr := prev.DrillQuery(extra)
			if qerr != nil {
				return skyOut{}, qerr
			}
			return sky(s.e.ScanSkyline(q, m))
		})
}

// RollUpQuery relaxes the previous query by removing predicates on the
// given dimensions, seeding the search with the previous skyline and
// charging no partition page the navigation chain has already read, with
// the same degradation policy as Query.
func (s *SkylineEngine) RollUpQuery(ctx context.Context, prev *SkylineSnapshot, removeDims []int, opts ...Option) ([]SkylineResult, *SkylineSnapshot, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("rankcube: roll-up requires a previous snapshot: %w", errs.ErrInvalidArgument)
	}
	return s.run(ctx, "skyline.rollup", opts,
		func(m *Metrics) (skyOut, error) { return sky(s.e.RollUp(prev, removeDims, m)) },
		func(m *Metrics) (skyOut, error) { return sky(s.e.ScanSkyline(prev.RollQuery(removeDims), m)) })
}

// TableScanQuery answers a query by a governed scan of rel's heap file — the
// thesis' baseline, and the same path the degradation policy falls back
// to. It never degrades further (the scan is already the floor), so
// budget trips and faults surface as typed errors.
func TableScanQuery(ctx context.Context, rel *Relation, cond Cond, f Func, k int, opts ...Option) ([]Result, error) {
	return runQuery(ctx, "scan.topk", applyOptions(opts),
		func(m *Metrics) ([]Result, error) {
			checkFunc(f, rel)
			return core.ScanTopK(core.NewHeapFile(rel, 0), nil, cond, f, k, m), nil
		},
		nil)
}

// checkFunc is the boundary's one check of a ranking function (core.CheckFunc),
// aborting ErrInvalidArgument. Entry points make it inside the attempt, where
// the cube's lock holds its relation still (a grid cube's Repartition
// replaces it).
func checkFunc(f Func, rel *Relation) {
	if err := core.CheckFunc(f, rel); err != nil {
		errs.Abort(err)
	}
}
