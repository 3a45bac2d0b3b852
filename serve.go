package rankcube

// Serving lifecycle: per-cube admission gates with graceful drain, and the
// quarantine repair path that returns corrupted stores to service through a
// half-open circuit-breaker probation. Concurrency discipline (the serving
// control each cube carries) is documented in internal/guard; this file is
// the public surface over it.

import (
	"context"
	"errors"

	"rankcube/internal/admission"
	"rankcube/internal/errs"
	"rankcube/internal/guard"
	"rankcube/internal/obs"
	"rankcube/internal/pager"
)

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

// AdmissionConfig bounds a cube's concurrent serving. Queries beyond
// MaxInFlight wait in a bounded, deadline-aware queue; queries the gate
// cannot plausibly serve — queue full, deadline nearer than the estimated
// wait, cube draining — fail immediately with ErrOverloaded. Maintenance
// (inserts, deletes, repartition, repair) is not admission-gated: the
// single-writer lock already serializes it, and shedding maintenance would
// lose data rather than load.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently executing queries; zero or negative
	// removes the gate (every query admitted).
	MaxInFlight int
	// MaxWaiting bounds the wait queue; zero rejects immediately when all
	// slots are busy.
	MaxWaiting int
	// Name keys the gate's metrics (admission.<name>.*); empty defaults to
	// the cube kind ("grid" or "sig").
	Name string
}

// serving is the serving shell both cubes embed: the admission gate, the
// health view and the repair lifecycle over a cube's serving control and
// page stores.
type serving struct {
	ctl      *guard.RW
	gateName string              // default AdmissionConfig.Name
	stores   func() []*PageStore // the cube's Stores method
	// targets lists the cube's stores with what Repair needs to know of each;
	// it is called with ctl held exclusively.
	targets func() []repairTarget
}

// SetAdmission installs (or with a zero MaxInFlight removes) the cube's
// serving gate. Safe to call while queries run: already-admitted queries
// release against the gate that admitted them.
func (s *serving) SetAdmission(cfg AdmissionConfig) {
	if cfg.Name == "" {
		cfg.Name = s.gateName
	}
	s.ctl.SetGate(admission.NewGate(cfg.Name, admission.Config{
		MaxInFlight: cfg.MaxInFlight,
		MaxWaiting:  cfg.MaxWaiting,
	}, nil))
}

// AdmissionStats is a point-in-time view of a cube's serving gate.
type AdmissionStats struct {
	// Gated reports whether an admission gate is configured at all.
	Gated bool
	// InFlight is the number of currently executing admitted queries.
	InFlight int
	// Waiting is the number of queries parked in the wait queue.
	Waiting int
	// Draining reports whether Drain has begun (new queries are refused).
	Draining bool
}

// AdmissionStats reports the gate's current occupancy.
func (s *serving) AdmissionStats() AdmissionStats {
	g := s.ctl.Gate()
	if g == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{Gated: true, InFlight: g.InFlight(), Waiting: g.Waiting(), Draining: g.Draining()}
}

// Drain gracefully shuts down the cube's serving gate: new queries and
// parked waiters are refused with ErrOverloaded, and Drain blocks until
// every in-flight query finishes or ctx expires. A cube without a gate has
// nothing to drain and returns nil immediately.
func (s *serving) Drain(ctx context.Context) error { return s.ctl.Gate().Drain(ctx) }

// ---------------------------------------------------------------------------
// Health & repair
// ---------------------------------------------------------------------------

// PageStore is a block-granular page store backing a cube structure. It is
// the attachment point for fault injection (SetFaultInjector, with e.g.
// pager.ScriptedFaults) and quarantine inspection.
type PageStore = pager.Store

// Stores returns the cube's page stores (one per materialized cuboid, plus
// the base block table) for fault injection and quarantine management.
func (g *GridCube) Stores() []*PageStore {
	return guard.Shared(g.ctl, func() []*PageStore {
		var out []*PageStore
		for _, cb := range g.c.Cuboids() {
			out = append(out, cb.Store())
		}
		return append(out, g.c.Blocks().Store())
	})
}

// Stores returns the cube's page stores (the signature store) for fault
// injection and quarantine management.
func (s *SignatureCube) Stores() []*PageStore { return []*PageStore{s.c.Store()} }

// StoreHealth is one page store's position in the quarantine lifecycle.
type StoreHealth struct {
	Kind  Structure
	State string // "healthy", "quarantined", "half-open"
	Pages int
}

// Health reports the lifecycle state of every store backing the cube.
func (s *serving) Health() []StoreHealth {
	var out []StoreHealth
	for _, st := range s.stores() {
		out = append(out, StoreHealth{Kind: st.Kind(), State: st.State().String(), Pages: st.NumPages()})
	}
	return out
}

// StoreRepair describes what one Repair pass did to one store.
type StoreRepair struct {
	Kind Structure
	// CorruptPages is how many pages failed checksum re-verification
	// before the rebuild.
	CorruptPages int
	// Rebuilt reports whether the store's content was re-materialized from
	// the base data; RebuiltPages is the rebuilt page count.
	Rebuilt      bool
	RebuiltPages int
	// Probed reports whether a half-open probe query ran; Readmitted
	// whether it succeeded and returned the store to full service.
	Probed     bool
	Readmitted bool
	// State is the store's lifecycle state after the pass.
	State string
}

// repairTarget is one store as Repair sees it: how to re-materialize it
// from the cube's maintained base data (the rebuilt page count is returned)
// and how to make the public query path read it. A nil rebuild marks a
// store that is reported only: the grid cube's base block table holds
// logical page sizes, no payload to corrupt.
type repairTarget struct {
	store   *PageStore
	rebuild func() int
	probe   func(ctx context.Context) error
}

// Repair runs the quarantine repair lifecycle over every store of the cube
// (the signature store; each cuboid store of a grid cube, where it matters
// for CompressLists cubes — uncompressed cuboids store logical page sizes
// only and verify trivially): page-by-page checksum re-verification, a
// rebuild of the store from the cube's maintained state when pages fail (or
// the store is already quarantined), half-open re-admission, and a probe
// query that must actually read the repaired store before the circuit
// closes. Verification and rebuild hold the cube's control exclusively; the
// probes run through the public query path (admission gate and shared lock
// included). The returned error is the last probe failure, if any; an error
// leaves its store quarantined (storage fault) or half-open (inconclusive
// probe).
func (s *serving) Repair(ctx context.Context) ([]StoreRepair, error) {
	var targets []repairTarget
	var reports []StoreRepair
	var halfOpen []int
	guard.Exclusive(s.ctl, func() {
		targets = s.targets()
		for i, t := range targets {
			st := t.store
			rep := StoreRepair{Kind: st.Kind()}
			if t.rebuild != nil {
				bad := st.VerifyPages()
				rep.CorruptPages = len(bad)
				if len(bad) > 0 || st.Quarantined() {
					rep.Rebuilt = true
					rep.RebuiltPages = t.rebuild()
					obs.Default().RecordRepair(st.Kind(), rep.RebuiltPages)
				}
				if st.Quarantined() && len(st.VerifyPages()) == 0 {
					st.EnterHalfOpen()
				}
				if st.State() == pager.StateHalfOpen {
					halfOpen = append(halfOpen, i)
				}
			}
			rep.State = st.State().String()
			reports = append(reports, rep)
		}
	})

	var probeErr error
	for _, i := range halfOpen {
		st := targets[i].store
		err := targets[i].probe(ctx)
		reports[i].Probed = true
		reports[i].Readmitted = probeOutcome(st, err)
		reports[i].State = st.State().String()
		if err != nil {
			probeErr = err
		}
	}
	return reports, probeErr
}

// probeOutcome applies the circuit-breaker decision for one half-open
// store after its probe query: success closes the circuit, a storage fault
// trips it back to quarantined, anything else (cancellation, overload) is
// inconclusive and leaves the store half-open for a later Repair.
func probeOutcome(st *PageStore, err error) (readmitted bool) {
	switch {
	case err == nil:
		obs.Default().RecordProbe(st.Kind(), true)
		return st.CloseCircuit()
	case errs.Degradable(err):
		obs.Default().RecordProbe(st.Kind(), false)
		st.Requarantine()
	}
	return false
}

// probe issues top-1 queries through a cube's public Query until one
// actually charges a read of the repaired structure (an empty cuboid cell
// reads nothing and proves nothing): the condition fixes dims to 0 and
// sweeps the first of them over its values, so the planner reads the cells
// of exactly the cuboid over dims. Degradation is off — a probe must prove
// the repaired store itself serves reads, not that the baseline can stand
// in for it. It returns the first query error, or nil when every probed
// cell was empty: a store no query can reach is trivially serviceable.
func probe(ctx context.Context, query func(context.Context, Cond, Func, int, ...Option) ([]Result, error),
	schema Schema, dims []int, kind Structure) error {
	ranks := make([]int, schema.R())
	for i := range ranks {
		ranks[i] = i
	}
	f := Sum(ranks...)
	for v := 0; v < schema.SelCard[dims[0]]; v++ {
		cond := Cond{}
		for _, d := range dims {
			cond[d] = 0
		}
		cond[dims[0]] = int32(v)
		m := NewMetrics()
		if _, err := query(ctx, cond, f, 1, WithMetrics(m), WithBudget(Budget{DisableFallback: true})); err != nil {
			return err
		}
		if m.Reads(kind) > 0 {
			return nil
		}
	}
	return nil
}

// repairTargets lists the signature store, rebuilt from the cube's path map
// and probed through the first selection dimension's cells.
func (s *SignatureCube) repairTargets() []repairTarget {
	schema := s.c.Table().Schema()
	return []repairTarget{{
		store:   s.c.Store(),
		rebuild: s.c.RebuildStore,
		probe: func(ctx context.Context) error {
			return probe(ctx, s.Query, schema, []int{0}, StructSignature)
		},
	}}
}

// repairTargets lists every cuboid store, rebuilt from the base relation
// into its reset store and probed through its own dimensions, then the base
// block table, reported only. The schema outlives a Repartition; the table
// pointer it is read through does not, which is why Repair asks under the
// control.
func (g *GridCube) repairTargets() []repairTarget {
	schema := g.c.Table().Schema()
	var out []repairTarget
	for _, cb := range g.c.Cuboids() {
		out = append(out, repairTarget{
			store:   cb.Store(),
			rebuild: func() int { return g.c.RebuildCuboid(cb) },
			probe: func(ctx context.Context) error {
				return probe(ctx, g.Query, schema, cb.Dims(), StructCube)
			},
		})
	}
	return append(out, repairTarget{store: g.c.Blocks().Store()})
}

// RepairError reports whether err came out of a repair probe as a definite
// storage failure (the store went back to quarantine) rather than an
// inconclusive interruption (cancellation or overload, store left
// half-open).
func RepairError(err error) bool {
	return err != nil && !errors.Is(err, errs.ErrCanceled) && !errors.Is(err, errs.ErrOverloaded)
}
