// Package chaos is a deterministic, seeded serving-chaos harness for the
// rankcube engines. One Run builds both cube engines over a seeded relation,
// then storms them with concurrent queries, online maintenance, and a
// scripted fault schedule (whole-store checksum rot followed by repair),
// while holding three invariants:
//
//  1. Every outcome is typed: queries either succeed or fail with exactly
//     one of the package's error sentinels. A contained panic (ErrInternal)
//     or an unclassified error is an invariant violation.
//  2. Every successful answer taken under the harness's consistency lock
//     crosschecks exactly against the matching baseline scan.
//  3. Every scripted corruption round ends with the store repaired and
//     re-admitted through the half-open probe before the run finishes.
//
// The harness is seeded — workload choices, fault schedule, and data are all
// derived from Config.Seed — and bounded by Config.Duration. Goroutine
// scheduling stays nondeterministic (that is the point of running it under
// -race), but everything the harness decides is reproducible.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rankcube"
	"rankcube/internal/errs"
	"rankcube/internal/pager"
)

// Config parameterizes one chaos run. The zero value of any field selects
// the default noted on it.
type Config struct {
	// Seed drives the generated relation, every worker's workload, and the
	// fault schedule. Same seed, same decisions. Default 1.
	Seed int64
	// Tuples is the base relation size. Default 1200.
	Tuples int
	// Workers is the number of storm goroutines per engine family (the run
	// spawns Workers goroutines total, split across roles). Default 8.
	Workers int
	// Duration bounds the run's wall-clock time. Default 1500ms.
	Duration time.Duration
	// MaxInFlight and MaxWaiting configure each cube's admission gate so the
	// storm exercises overload shedding. Defaults 4 and 8.
	MaxInFlight int
	MaxWaiting  int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tuples == 0 {
		c.Tuples = 1200
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.Duration == 0 {
		c.Duration = 1500 * time.Millisecond
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.MaxWaiting == 0 {
		c.MaxWaiting = 8
	}
	return c
}

// Report is what one chaos run observed. Validate turns it into a verdict.
type Report struct {
	Queries    int64 // queries issued (both engines, all roles)
	Succeeded  int64 // queries that returned an answer
	Checked    int64 // successful answers crosschecked against a baseline
	Mismatches int64 // crosschecks that disagreed (invariant violation)
	Overloaded int64 // ErrOverloaded sheds (expected under the gate)
	Canceled   int64 // ErrCanceled (run deadline racing a query)
	Degradable int64 // typed storage-fault outcomes (fallback disabled paths)
	Internal   int64 // ErrInternal — a contained engine panic (violation)
	Untyped    int64 // errors matching no sentinel (invariant violation)

	Inserts, Deletes, Repartitions int64 // maintenance ops applied
	// MaintFaults counts maintenance ops that failed with a typed storage
	// fault while rot was injected; the store quarantines itself and the
	// logical state stays complete, so these are expected, not violations.
	MaintFaults int64

	FaultRounds int64 // scripted corruption rounds started
	Repairs     int64 // stores rebuilt from base data
	Readmitted  int64 // half-open probes that closed the circuit

	// FirstViolation describes the first invariant violation seen, for the
	// test log; empty when the run was clean.
	FirstViolation string
}

// Validate returns nil when the run held every invariant, or an error
// naming the first broken one. Broken serving invariants wrap ErrInternal
// (the engine misbehaved); coverage shortfalls wrap ErrInvalidArgument (the
// run was configured too short to exercise the lifecycle).
func (r *Report) Validate() error {
	switch {
	case r.Untyped > 0:
		return fmt.Errorf("chaos: %d untyped outcomes: %s: %w", r.Untyped, r.FirstViolation, errs.ErrInternal)
	case r.Internal > 0:
		return fmt.Errorf("chaos: %d contained panics: %s: %w", r.Internal, r.FirstViolation, errs.ErrInternal)
	case r.Mismatches > 0:
		return fmt.Errorf("chaos: %d crosscheck mismatches: %s: %w", r.Mismatches, r.FirstViolation, errs.ErrInternal)
	case r.Checked == 0:
		return fmt.Errorf("chaos: no successful answer was ever crosschecked: %w", errs.ErrInvalidArgument)
	case r.FaultRounds == 0:
		return fmt.Errorf("chaos: fault schedule never ran: %w", errs.ErrInvalidArgument)
	case r.Readmitted == 0:
		return fmt.Errorf("chaos: no corrupted store was repaired and re-admitted: %w", errs.ErrInternal)
	}
	return nil
}

// String renders the report as a one-run summary block.
func (r *Report) String() string {
	return fmt.Sprintf(
		"queries=%d succeeded=%d checked=%d mismatches=%d overloaded=%d canceled=%d degradable=%d internal=%d untyped=%d\n"+
			"inserts=%d deletes=%d repartitions=%d maint_faults=%d fault_rounds=%d repairs=%d readmitted=%d",
		r.Queries, r.Succeeded, r.Checked, r.Mismatches, r.Overloaded, r.Canceled, r.Degradable, r.Internal, r.Untyped,
		r.Inserts, r.Deletes, r.Repartitions, r.MaintFaults, r.FaultRounds, r.Repairs, r.Readmitted)
}

// run bundles the mutable state one chaos run threads through its roles.
type run struct {
	cfg  Config
	stop time.Time

	sig  *rankcube.SignatureCube
	grid *rankcube.GridCube
	// sigMu / gridMu are the harness consistency locks: mutators hold them
	// exclusively, checked queries hold them shared so the cube answer and
	// the baseline answer observe the same logical state. Raw-storm queries
	// bypass them entirely and rely on the engines' own serving locks.
	sigMu, gridMu sync.RWMutex

	tal tally
	// violation latches the first violation description.
	violation atomic.Pointer[string]

	card int
	f    rankcube.Func
}

// tally holds the run's concurrent counters as typed atomics: a typed
// atomic cannot be accessed non-atomically at all, so the storm goroutines
// cannot race the fault controller on them by construction. Run
// materializes the plain Report after the workers join.
type tally struct {
	queries, succeeded, checked, mismatches     atomic.Int64
	overloaded, canceled, degradable            atomic.Int64
	internal, untyped                           atomic.Int64
	inserts, deletes, repartitions, maintFaults atomic.Int64
	faultRounds, repairs, readmitted            atomic.Int64
}

// report snapshots the tally into a plain Report. Only sound after the
// goroutines updating the tally have joined.
func (t *tally) report() Report {
	return Report{
		Queries:      t.queries.Load(),
		Succeeded:    t.succeeded.Load(),
		Checked:      t.checked.Load(),
		Mismatches:   t.mismatches.Load(),
		Overloaded:   t.overloaded.Load(),
		Canceled:     t.canceled.Load(),
		Degradable:   t.degradable.Load(),
		Internal:     t.internal.Load(),
		Untyped:      t.untyped.Load(),
		Inserts:      t.inserts.Load(),
		Deletes:      t.deletes.Load(),
		Repartitions: t.repartitions.Load(),
		MaintFaults:  t.maintFaults.Load(),
		FaultRounds:  t.faultRounds.Load(),
		Repairs:      t.repairs.Load(),
		Readmitted:   t.readmitted.Load(),
	}
}

func (r *run) violate(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.violation.CompareAndSwap(nil, &s)
}

// Run executes one seeded chaos run and returns its report. The returned
// error is ctx's, if it expired before the bounded duration did; invariant
// verdicts live in Report.Validate.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	const (
		s    = 2
		rnk  = 2
		card = 4
	)
	// Each cube gets its OWN relation (identical content, distinct tables):
	// the serving discipline is per-cube, so two cubes sharing one mutable
	// base relation must not be maintained concurrently — maintenance on one
	// would race the other's baseline scans outside either cube's lock.
	sigRel := rankcube.GenerateRelation(cfg.Tuples, s, rnk, card, rankcube.Uniform, cfg.Seed)
	gridRel := rankcube.GenerateRelation(cfg.Tuples, s, rnk, card, rankcube.Uniform, cfg.Seed)

	r := &run{cfg: cfg, stop: time.Now().Add(cfg.Duration), card: card, f: rankcube.Sum(0, 1)}
	r.sig = rankcube.BuildSignatureCube(sigRel, rankcube.SigOptions{Fanout: 16})
	// The default block size puts ~300 tuples, two pages, in a base block, so
	// storms and maintenance reach the page-granular block fetch.
	r.grid = rankcube.BuildGridCube(gridRel, rankcube.GridOptions{CompressLists: true})
	r.sig.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: cfg.MaxInFlight, MaxWaiting: cfg.MaxWaiting, Name: "chaos-sig"})
	r.grid.SetAdmission(rankcube.AdmissionConfig{MaxInFlight: cfg.MaxInFlight, MaxWaiting: cfg.MaxWaiting, Name: "chaos-grid"})

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.storm(ctx, w)
		}(w)
	}
	// The fault controller is its own role: it corrupts a store, trips it,
	// and drives the repair lifecycle while the storm keeps running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.faultLoop(ctx)
	}()
	wg.Wait()

	rep := r.tal.report()
	if v := r.violation.Load(); v != nil {
		rep.FirstViolation = *v
	}
	return &rep, ctx.Err()
}

// storm is one worker's seeded workload loop. Role by worker index:
// even workers target the signature cube, odd workers the grid cube; within
// each family the op mix is drawn from the worker's own rng.
func (r *run) storm(ctx context.Context, w int) {
	rng := rand.New(rand.NewSource(r.cfg.Seed*1000 + int64(w)))
	sig := w%2 == 0
	for i := 0; time.Now().Before(r.stop) && ctx.Err() == nil; i++ {
		cond := rankcube.Cond{rng.Intn(2): int32(rng.Intn(r.card))}
		k := 1 + rng.Intn(10)
		switch op := rng.Intn(10); {
		case op < 2: // mutate
			if sig {
				r.sigMu.Lock()
				r.mutateSig(ctx, rng)
				r.sigMu.Unlock()
			} else {
				r.gridMu.Lock()
				r.mutateGrid(ctx, rng, i)
				r.gridMu.Unlock()
			}
		case op < 6: // checked query under the consistency lock
			if sig {
				r.sigMu.RLock()
				r.checkedQuery(ctx, sigQuerier{r.sig}, cond, k)
				r.sigMu.RUnlock()
			} else {
				r.gridMu.RLock()
				r.checkedQuery(ctx, gridQuerier{r.grid}, cond, k)
				r.gridMu.RUnlock()
			}
		default: // raw storm query: typedness only
			var err error
			if sig {
				_, err = r.sig.Query(ctx, cond, r.f, k)
			} else {
				_, err = r.grid.Query(ctx, cond, r.f, k)
			}
			r.record(err, false)
		}
	}
}

// querier lets checkedQuery treat both engines uniformly.
type querier interface {
	query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int) ([]rankcube.Result, error)
	baseline(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int) ([]rankcube.Result, error)
	name() string
}

type sigQuerier struct{ c *rankcube.SignatureCube }

func (q sigQuerier) query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int) ([]rankcube.Result, error) {
	return q.c.Query(ctx, cond, f, k)
}
func (q sigQuerier) baseline(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int) ([]rankcube.Result, error) {
	return q.c.BaselineQuery(ctx, cond, f, k)
}
func (q sigQuerier) name() string { return "sig" }

type gridQuerier struct{ c *rankcube.GridCube }

func (q gridQuerier) query(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int) ([]rankcube.Result, error) {
	return q.c.Query(ctx, cond, f, k)
}
func (q gridQuerier) baseline(ctx context.Context, cond rankcube.Cond, f rankcube.Func, k int) ([]rankcube.Result, error) {
	return q.c.BaselineQuery(ctx, cond, f, k)
}
func (q gridQuerier) name() string { return "grid" }

// checkedQuery issues a cube query and its matching baseline under the same
// (caller-held) consistency lock and crosschecks the score vectors.
func (r *run) checkedQuery(ctx context.Context, q querier, cond rankcube.Cond, k int) {
	got, err := q.query(ctx, cond, r.f, k)
	if !r.record(err, false) {
		return
	}
	want, berr := q.baseline(ctx, cond, r.f, k)
	if !r.record(berr, true) {
		return
	}
	r.tal.checked.Add(1)
	if !scoresEqual(got, want) {
		r.tal.mismatches.Add(1)
		r.violate("%s crosscheck: cond=%v k=%d cube=%v baseline=%v", q.name(), cond, k, got, want)
	}
}

func (r *run) mutateSig(ctx context.Context, rng *rand.Rand) {
	if rng.Intn(3) == 0 {
		if _, err := r.sig.DeleteTuple(ctx, rankcube.TID(rng.Intn(r.cfg.Tuples))); err != nil {
			r.recordMaint("sig delete", err)
			return
		}
		r.tal.deletes.Add(1)
		return
	}
	sel := []int32{int32(rng.Intn(r.card)), int32(rng.Intn(r.card))}
	rank := []float64{rng.Float64(), rng.Float64()}
	if _, err := r.sig.InsertTuple(ctx, sel, rank); err != nil {
		r.recordMaint("sig insert", err)
		return
	}
	r.tal.inserts.Add(1)
}

// recordMaint classifies a failed maintenance op. Maintenance cannot degrade
// (there is no baseline to fall back to for a write), so a typed storage
// fault while rot is injected is a legitimate outcome: the cube quarantines
// the store and the fault controller's Repair reconciles it. Anything
// untyped is a violation.
func (r *run) recordMaint(op string, err error) {
	switch {
	case errors.Is(err, rankcube.ErrPageCorrupt), errors.Is(err, rankcube.ErrReadFailed),
		errors.Is(err, rankcube.ErrStructureUnavailable), errors.Is(err, rankcube.ErrCanceled):
		r.tal.maintFaults.Add(1)
	case errors.Is(err, rankcube.ErrInternal):
		r.tal.internal.Add(1)
		r.violate("%s: contained panic: %v", op, err)
	default:
		r.tal.untyped.Add(1)
		r.violate("%s: untyped outcome: %v", op, err)
	}
}

func (r *run) mutateGrid(ctx context.Context, rng *rand.Rand, i int) {
	switch rng.Intn(4) {
	case 0:
		if _, err := r.grid.DeleteTuple(ctx, rankcube.TID(rng.Intn(r.cfg.Tuples))); err != nil {
			r.recordMaint("grid delete", err)
			return
		}
		r.tal.deletes.Add(1)
	case 1:
		if i%7 == 6 {
			if _, err := r.grid.Repartition(ctx); err != nil {
				r.recordMaint("grid repartition", err)
				return
			}
			r.tal.repartitions.Add(1)
		}
	default:
		sel := []int32{int32(rng.Intn(r.card)), int32(rng.Intn(r.card))}
		if _, err := r.grid.InsertTuple(ctx, sel, []float64{rng.Float64(), rng.Float64()}); err != nil {
			r.recordMaint("grid insert", err)
			return
		}
		r.tal.inserts.Add(1)
	}
}

// record classifies one query outcome into the report. It returns true when
// the query succeeded. isBaseline marks the crosscheck's baseline leg, whose
// failure is a violation unless it is a benign interruption (overload or the
// run deadline) — the baseline path has no cube structures to rot.
func (r *run) record(err error, isBaseline bool) bool {
	r.tal.queries.Add(1)
	switch {
	case err == nil:
		r.tal.succeeded.Add(1)
		return true
	case errors.Is(err, rankcube.ErrOverloaded):
		r.tal.overloaded.Add(1)
	case errors.Is(err, rankcube.ErrCanceled):
		r.tal.canceled.Add(1)
	case errors.Is(err, rankcube.ErrInternal):
		r.tal.internal.Add(1)
		r.violate("contained panic: %v", err)
	case errors.Is(err, rankcube.ErrPageCorrupt), errors.Is(err, rankcube.ErrReadFailed),
		errors.Is(err, rankcube.ErrStructureUnavailable), errors.Is(err, rankcube.ErrBudgetExceeded),
		errors.Is(err, rankcube.ErrInvalidArgument):
		r.tal.degradable.Add(1)
		if isBaseline {
			r.tal.untyped.Add(1)
			r.violate("baseline scan faulted: %v", err)
		}
	default:
		r.tal.untyped.Add(1)
		r.violate("untyped outcome: %v", err)
	}
	return false
}

// faultLoop is the scripted fault schedule: alternating rounds of
// whole-store rot against the signature store and the grid's cuboid stores.
// Each round corrupts, trips quarantine with a probe query (which must still
// answer, degraded), lifts the fault, and drives Repair until the store is
// re-admitted through its half-open probe (retrying when the probe was shed
// by the admission gate).
func (r *run) faultLoop(ctx context.Context) {
	rng := rand.New(rand.NewSource(r.cfg.Seed * 7919))
	for round := 0; time.Now().Before(r.stop) && ctx.Err() == nil; round++ {
		if round%2 == 0 {
			r.faultRound(ctx, rng, r.sig.Stores(), func(c context.Context) ([]rankcube.StoreRepair, error) { return r.sig.Repair(c) }, sigQuerier{r.sig}, &r.sigMu)
		} else {
			r.faultRound(ctx, rng, r.grid.Stores(), func(c context.Context) ([]rankcube.StoreRepair, error) { return r.grid.Repair(c) }, gridQuerier{r.grid}, &r.gridMu)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (r *run) faultRound(ctx context.Context, rng *rand.Rand, stores []*pager.Store,
	repair func(context.Context) ([]rankcube.StoreRepair, error), q querier, mu *sync.RWMutex) {
	r.tal.faultRounds.Add(1)
	rot := &pager.ScriptedFaults{CorruptAll: true}
	for _, st := range stores {
		st.SetFaultInjector(rot)
	}
	// Trip quarantine: with every payload page rotting, the first query that
	// reads one degrades to the baseline — and must still answer correctly.
	// The degraded answer and its crosscheck hold the consistency lock like
	// any checked query: a mutation landing between the two is a mismatch of
	// the harness's making.
	cond := rankcube.Cond{0: int32(rng.Intn(r.card))}
	mu.RLock()
	got, err := q.query(ctx, cond, r.f, 5)
	if r.record(err, false) {
		want, berr := q.baseline(ctx, cond, r.f, 5)
		if r.record(berr, true) {
			r.tal.checked.Add(1)
			if !scoresEqual(got, want) {
				r.tal.mismatches.Add(1)
				r.violate("%s degraded crosscheck: cond=%v cube=%v baseline=%v", q.name(), cond, got, want)
			}
		}
	}
	mu.RUnlock()

	// Lift the rot and repair. The probe can be shed by the admission gate
	// (inconclusive, store stays half-open), so retry within the run budget.
	for _, st := range stores {
		st.SetFaultInjector(nil)
	}
	for time.Now().Before(r.stop) && ctx.Err() == nil {
		reports, err := repair(ctx)
		if err != nil && rankcube.RepairError(err) {
			r.violate("repair probe hard-failed with no fault injected: %v", err)
			r.tal.untyped.Add(1)
			return
		}
		done, readmitted := true, false
		for _, rep := range reports {
			if rep.Rebuilt {
				r.tal.repairs.Add(1)
			}
			if rep.Readmitted {
				readmitted = true
			}
			if rep.State == pager.StateHalfOpen.String() || rep.State == pager.StateQuarantined.String() {
				done = false
			}
		}
		if readmitted {
			r.tal.readmitted.Add(1)
		}
		if done {
			return
		}
	}
}

func scoresEqual(a, b []rankcube.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}
