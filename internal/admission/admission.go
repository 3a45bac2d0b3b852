// Package admission implements per-cube serving gates: bounded concurrent
// query admission with a deadline-aware wait queue and graceful drain.
//
// The ranking-cube's promise is bounded-cost answers over shared
// materialized structures. Under heavy concurrent traffic that promise dies
// without load shedding: every admitted query costs block reads and heap
// space, and a pile-up of waiters serves nobody. A Gate caps the number of
// in-flight queries, queues a bounded number of waiters, and rejects the
// rest immediately with a typed errs.ErrOverloaded — the same taxonomy the
// rest of the robustness layer speaks, recovered at the public API boundary
// like every other abort.
//
// The queue is deadline-aware: a waiter whose context deadline would expire
// before the gate could plausibly run it (estimated from an exponentially
// weighted moving average of recent service times and its position in the
// queue) is rejected immediately rather than parked to time out — its
// caller learns now, while retrying elsewhere is still useful.
//
// Drain shuts a gate down gracefully: new arrivals are refused with
// ErrOverloaded, waiters are flushed, and Drain blocks until the last
// admitted query releases its slot (or the drain context expires).
//
// Every outcome is recorded in the process metrics registry
// (internal/obs): admitted, queued, rejected (per reason), drained, plus
// in-flight and waiting gauges, keyed by the gate's name.
package admission

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rankcube/internal/errs"
	"rankcube/internal/obs"
)

// Config bounds a gate.
type Config struct {
	// MaxInFlight is the number of queries allowed to execute
	// concurrently. Zero or negative disables gating entirely (NewGate
	// returns nil, and a nil *Gate admits everything).
	MaxInFlight int
	// MaxWaiting bounds the wait queue; arrivals beyond it are rejected
	// immediately with ErrOverloaded. Zero means no queue: when every slot
	// is busy, arrivals are rejected at once.
	MaxWaiting int
}

// Gate is one cube's serving gate. A nil *Gate admits everything, so
// callers thread an optional gate without branching.
type Gate struct {
	name string
	cfg  Config
	reg  *obs.Registry

	// slots is a token semaphore with MaxInFlight capacity.
	slots chan struct{}

	mu       sync.Mutex
	waiting  int
	draining bool
	// drained is closed when draining begins, waking every parked waiter.
	drained chan struct{}

	// ewmaServiceUS is an exponentially weighted moving average of
	// observed service times in microseconds, the basis of the queue's
	// deadline estimate. Atomic: releases update it concurrently.
	ewmaServiceUS atomic.Int64

	inflight atomic.Int64
}

// ewmaWeight is the EWMA update weight in 1/16ths: new = old + (obs-old)/16.
const ewmaWeight = 16

// NewGate returns a gate named name (the metrics key) enforcing cfg, or nil
// when cfg.MaxInFlight disables gating. reg may be nil for the process
// default registry.
func NewGate(name string, cfg Config, reg *obs.Registry) *Gate {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	if cfg.MaxWaiting < 0 {
		cfg.MaxWaiting = 0
	}
	if reg == nil {
		reg = obs.Default()
	}
	return &Gate{
		name:    name,
		cfg:     cfg,
		reg:     reg,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		drained: make(chan struct{}),
	}
}

// counter returns the gate's metric counter for the given event suffix.
func (g *Gate) counter(event string) *obs.Counter {
	return g.reg.Counter("admission." + g.name + "." + event)
}

// InFlight reports the number of currently admitted queries.
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return int(g.inflight.Load())
}

// Waiting reports the number of parked waiters.
func (g *Gate) Waiting() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting
}

// EstimatedService reports the gate's moving average of service time (zero
// until the first release).
func (g *Gate) EstimatedService() time.Duration {
	if g == nil {
		return 0
	}
	return time.Duration(g.ewmaServiceUS.Load()) * time.Microsecond
}

// Acquire admits the calling query or rejects it with a typed error:
// errs.ErrOverloaded when capacity and queue are exhausted, the gate is
// draining, or the caller's deadline would expire before a slot could
// plausibly free; errs.Canceled(ctx.Err()) when ctx ends while waiting. On
// success the returned release function must be called exactly once when the
// query finishes — it frees the slot and feeds the service-time estimate.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Fast path: a slot is free right now.
	select {
	case g.slots <- struct{}{}:
		return g.admit(), nil
	default:
	}

	// Slow path: decide whether to park.
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return nil, g.reject("rejected_draining", "gate %q is draining", g.name)
	}
	if g.waiting >= g.cfg.MaxWaiting {
		g.mu.Unlock()
		return nil, g.reject("rejected_queue_full",
			"gate %q saturated: %d in flight, %d waiting", g.name, g.cfg.MaxInFlight, g.cfg.MaxWaiting)
	}
	if deadline, ok := ctx.Deadline(); ok {
		// Position in line: everyone already waiting plus this query, over
		// MaxInFlight servers, each busy for about one EWMA service time.
		est := g.EstimatedService()
		rounds := (g.waiting + g.cfg.MaxInFlight) / g.cfg.MaxInFlight // ≥ 1
		if est > 0 && time.Until(deadline) < time.Duration(rounds)*est {
			g.mu.Unlock()
			return nil, g.reject("rejected_deadline",
				"gate %q: deadline %s away, estimated wait %s", g.name,
				time.Until(deadline).Round(time.Microsecond), (time.Duration(rounds) * est).Round(time.Microsecond))
		}
	}
	g.waiting++
	g.reg.Gauge("admission." + g.name + ".waiting").Set(int64(g.waiting))
	drained := g.drained
	g.mu.Unlock()
	g.counter("queued").Add(1)

	defer func() {
		g.mu.Lock()
		g.waiting--
		g.reg.Gauge("admission." + g.name + ".waiting").Set(int64(g.waiting))
		g.mu.Unlock()
	}()

	select {
	case g.slots <- struct{}{}:
		return g.admit(), nil
	case <-drained:
		return nil, g.reject("rejected_draining", "gate %q is draining", g.name)
	case <-ctx.Done():
		g.counter("canceled_waiting").Add(1)
		return nil, fmt.Errorf("admission: gate %q wait: %w", g.name, errs.Canceled(ctx.Err()))
	}
}

// admit finalizes a successful acquisition and builds its release closure.
func (g *Gate) admit() func() {
	n := g.inflight.Add(1)
	g.reg.Gauge("admission." + g.name + ".inflight").Set(n)
	g.counter("admitted").Add(1)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			us := time.Since(start).Microseconds()
			for {
				old := g.ewmaServiceUS.Load()
				upd := old + (us-old)/ewmaWeight
				if old == 0 {
					upd = us
				}
				if g.ewmaServiceUS.CompareAndSwap(old, upd) {
					break
				}
			}
			g.reg.Gauge("admission." + g.name + ".inflight").Set(g.inflight.Add(-1))
			<-g.slots
		})
	}
}

// reject counts a load-shedding rejection and builds its typed error.
func (g *Gate) reject(event, format string, args ...any) error {
	g.counter(event).Add(1)
	g.counter("rejected").Add(1)
	return fmt.Errorf("admission: "+fmt.Sprintf(format, args...)+": %w", errs.ErrOverloaded)
}

// Drain shuts the gate down gracefully: new arrivals and parked waiters are
// rejected with ErrOverloaded, and Drain blocks until every admitted query
// has released its slot or ctx expires (returning errs.Canceled of ctx's
// error). Drain is idempotent; after it returns nil the gate is
// permanently closed.
func (g *Gate) Drain(ctx context.Context) error {
	if g == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		close(g.drained)
		g.counter("drains").Add(1)
	}
	g.mu.Unlock()

	// Take every slot: once all MaxInFlight tokens are held here, no query
	// is in flight.
	for i := 0; i < g.cfg.MaxInFlight; i++ {
		select {
		case g.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("admission: drain of gate %q: %w", g.name, errs.Canceled(ctx.Err()))
		}
	}
	return nil
}

// Draining reports whether Drain has begun.
func (g *Gate) Draining() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}
