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
	"rankcube/internal/obs"
	"rankcube/internal/pager"
	"rankcube/internal/stats"
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

func (c AdmissionConfig) gate(defaultName string) *admission.Gate {
	name := c.Name
	if name == "" {
		name = defaultName
	}
	return admission.NewGate(name, admission.Config{
		MaxInFlight: c.MaxInFlight,
		MaxWaiting:  c.MaxWaiting,
	}, nil)
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

func gateStats(g *admission.Gate) AdmissionStats {
	if g == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{Gated: true, InFlight: g.InFlight(), Waiting: g.Waiting(), Draining: g.Draining()}
}

// SetAdmission installs (or with a zero MaxInFlight removes) the cube's
// serving gate. Safe to call while queries run: already-admitted queries
// release against the gate that admitted them.
func (g *GridCube) SetAdmission(cfg AdmissionConfig) {
	g.c.Ctl().SetGate(cfg.gate("grid"))
}

// SetAdmission installs (or with a zero MaxInFlight removes) the cube's
// serving gate, as GridCube.SetAdmission does.
func (s *SignatureCube) SetAdmission(cfg AdmissionConfig) {
	s.c.Ctl().SetGate(cfg.gate("sig"))
}

// AdmissionStats reports the gate's current occupancy.
func (g *GridCube) AdmissionStats() AdmissionStats { return gateStats(g.c.Ctl().Gate()) }

// AdmissionStats reports the gate's current occupancy.
func (s *SignatureCube) AdmissionStats() AdmissionStats { return gateStats(s.c.Ctl().Gate()) }

// Drain gracefully shuts down the cube's serving gate: new queries and
// parked waiters are refused with ErrOverloaded, and Drain blocks until
// every in-flight query finishes or ctx expires. A cube without a gate has
// nothing to drain and returns nil immediately.
func (g *GridCube) Drain(ctx context.Context) error { return g.c.Ctl().Gate().Drain(ctx) }

// Drain gracefully shuts down the cube's serving gate, as GridCube.Drain
// does.
func (s *SignatureCube) Drain(ctx context.Context) error { return s.c.Ctl().Gate().Drain(ctx) }

// ---------------------------------------------------------------------------
// Health & repair
// ---------------------------------------------------------------------------

// StoreHealth is one page store's position in the quarantine lifecycle.
type StoreHealth struct {
	Kind  Structure
	State string // "healthy", "quarantined", "half-open"
	Pages int
}

func healthOf(stores []*PageStore) []StoreHealth {
	out := make([]StoreHealth, 0, len(stores))
	for _, st := range stores {
		out = append(out, StoreHealth{Kind: st.Kind(), State: st.State().String(), Pages: st.NumPages()})
	}
	return out
}

// Health reports the lifecycle state of every store backing the cube.
func (g *GridCube) Health() []StoreHealth { return healthOf(g.Stores()) }

// Health reports the lifecycle state of every store backing the cube.
func (s *SignatureCube) Health() []StoreHealth { return healthOf(s.Stores()) }

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
		return false
	default:
		return false
	}
}

// probeBudget disables degradation: a probe must prove the repaired store
// itself serves reads, not that the baseline can stand in for it.
func probeBudget() Option { return WithBudget(Budget{DisableFallback: true}) }

// Repair runs the quarantine repair lifecycle over the signature store:
// page-by-page checksum re-verification, a rebuild of the store from the
// cube's maintained state when pages fail (or the store is already
// quarantined), half-open re-admission, and a probe query that must
// actually read signature pages before the circuit closes. The verification
// and rebuild hold the cube's control exclusively; the probe runs through
// the public query path (admission gate and shared lock included). The
// returned error is the probe's failure, if any; an error leaves the store
// quarantined (storage fault) or half-open (inconclusive probe).
func (s *SignatureCube) Repair(ctx context.Context) ([]StoreRepair, error) {
	st := s.c.Store()
	rep := StoreRepair{Kind: st.Kind()}

	// The verification/rebuild span runs in its own frame so the release is
	// deferred: VerifyPages and RebuildStore read through the pager and can
	// abort on a storage fault, and a panic escaping a held lock would wedge
	// the cube.
	ctl := s.c.Ctl()
	var needProbe bool
	func() {
		ctl.Lock()
		defer ctl.Unlock()
		bad := st.VerifyPages()
		rep.CorruptPages = len(bad)
		if len(bad) > 0 || st.Quarantined() {
			rep.Rebuilt = true
			rep.RebuiltPages = s.c.RebuildStore()
			obs.Default().RecordRepair(st.Kind(), rep.RebuiltPages)
		}
		if st.Quarantined() && len(st.VerifyPages()) == 0 {
			st.EnterHalfOpen()
		}
		needProbe = st.State() == pager.StateHalfOpen
	}()

	var probeErr error
	if needProbe {
		rep.Probed = true
		probeErr = s.probeSignatureStore(ctx)
		rep.Readmitted = probeOutcome(st, probeErr)
	}
	rep.State = st.State().String()
	return []StoreRepair{rep}, probeErr
}

// probeSignatureStore issues probe queries until one actually charges a
// signature-store read (an empty cuboid cell reads nothing and proves
// nothing), sweeping the first selection dimension's values. It returns the
// first query error, or nil when every probed cell was empty — a store no
// query can reach is trivially serviceable.
func (s *SignatureCube) probeSignatureStore(ctx context.Context) error {
	schema := s.c.Table().Schema()
	f := sumAllRanks(schema.R())
	for v := 0; v < schema.SelCard[0]; v++ {
		m := NewMetrics()
		if _, err := s.Query(ctx, Cond{0: int32(v)}, f, 1, WithMetrics(m), probeBudget()); err != nil {
			return err
		}
		if m.ReadsSnapshot()[stats.StructSignature] > 0 {
			return nil
		}
	}
	return nil
}

// Repair runs the quarantine repair lifecycle over every cuboid store:
// checksum re-verification, rebuild of failing cuboids from the base
// relation into their reset stores, half-open re-admission, and a probe
// query per repaired cuboid through the public query path. Uncompressed
// cuboids and the base block table store only logical page sizes (no
// payload to corrupt), so they verify trivially; the repair path matters
// for CompressLists cubes. The returned error is the last probe failure,
// if any.
func (g *GridCube) Repair(ctx context.Context) ([]StoreRepair, error) {
	type probe struct {
		st   *PageStore
		dims []int
		idx  int
	}
	var reports []StoreRepair
	var probes []probe
	// The schema outlives a Repartition; the table pointer it is read
	// through does not, so take it under the control.
	var schema Schema

	// As in (*SignatureCube).Repair: the rebuild span gets its own frame so
	// the release is deferred against aborts inside VerifyPages/RebuildCuboid.
	ctl := g.c.Ctl()
	func() {
		ctl.Lock()
		defer ctl.Unlock()
		schema = g.c.Table().Schema()
		for _, cb := range g.c.Cuboids() {
			st := cb.Store()
			rep := StoreRepair{Kind: st.Kind()}
			bad := st.VerifyPages()
			rep.CorruptPages = len(bad)
			if len(bad) > 0 || st.Quarantined() {
				rep.Rebuilt = true
				rep.RebuiltPages = g.c.RebuildCuboid(cb)
				obs.Default().RecordRepair(st.Kind(), rep.RebuiltPages)
			}
			if st.Quarantined() && len(st.VerifyPages()) == 0 {
				st.EnterHalfOpen()
			}
			if st.State() == pager.StateHalfOpen {
				probes = append(probes, probe{st: st, dims: cb.Dims(), idx: len(reports)})
			}
			rep.State = st.State().String()
			reports = append(reports, rep)
		}
		bt := g.c.Blocks().Store()
		reports = append(reports, StoreRepair{Kind: bt.Kind(), State: bt.State().String()})
	}()

	var probeErr error
	f := sumAllRanks(schema.R())
	for _, p := range probes {
		// Target the repaired cuboid: a condition over exactly its
		// dimensions makes the planner read its cells. Sweep the first
		// dimension's values until a cube-store read is charged.
		card := schema.SelCard[p.dims[0]]
		var err error
		for v := 0; v < card; v++ {
			cond := Cond{}
			for _, d := range p.dims {
				cond[d] = 0
			}
			cond[p.dims[0]] = int32(v)
			m := NewMetrics()
			if _, err = g.Query(ctx, cond, f, 1, WithMetrics(m), probeBudget()); err != nil {
				break
			}
			if m.ReadsSnapshot()[stats.StructCube] > 0 {
				break
			}
		}
		reports[p.idx].Probed = true
		reports[p.idx].Readmitted = probeOutcome(p.st, err)
		reports[p.idx].State = p.st.State().String()
		if err != nil {
			probeErr = err
		}
	}
	return reports, probeErr
}

// sumAllRanks is the probe ranking function: the unweighted sum over every
// ranking dimension.
func sumAllRanks(r int) Func {
	dims := make([]int, r)
	for i := range dims {
		dims[i] = i
	}
	return Sum(dims...)
}

// RepairError reports whether err came out of a repair probe as a definite
// storage failure (the store went back to quarantine) rather than an
// inconclusive interruption (cancellation or overload, store left
// half-open).
func RepairError(err error) bool {
	return err != nil && !errors.Is(err, errs.ErrCanceled) && !errors.Is(err, errs.ErrOverloaded)
}
