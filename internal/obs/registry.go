// Package obs is what the query layer keeps process-wide: a metrics Registry
// that aggregates every query's kind, outcome, latency and block reads with
// atomic counters, gauges and bounded log2-bucket latency histograms,
// published via expvar and a plain-text HTTP endpoint, and a SlowLog that
// keeps the rendered span trees of queries over a threshold in a bounded
// ring. A query's own trace and counters are internal/stats's.
//
// The ranking-cube methodology's central claim is I/O economy, so the unit
// counted here is the governed block read. Everything is allocation-light:
// with no trace attached a query pays only the registry's handful of atomic
// adds.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rankcube/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets bounds a histogram: bucket i counts observations in
// [2^(i-1), 2^i) µs (bucket 0 is <1µs), with the last bucket absorbing
// everything beyond ~2¹⁹h — bounded memory regardless of traffic.
const histBuckets = 32

// Histogram is a bounded log2-bucket latency histogram over
// microseconds. All methods are safe for concurrent use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
}

// bucketOf maps a duration to its log2 bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Microseconds())
}

// Count reports total observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean reports the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/n) * time.Microsecond
}

// Bucket reports the count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// String renders the occupied buckets: "<1µs:3 <2µs:1 <16ms:7".
func (h *Histogram) String() string {
	var parts []string
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("<%s:%d", bucketUpper(i), n))
		}
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// bucketUpper names bucket i's exclusive upper bound.
func bucketUpper(i int) string {
	if i >= histBuckets-1 {
		return "inf"
	}
	d := time.Duration(1<<uint(i)) * time.Microsecond
	return d.String()
}

// Registry is a process-wide metrics registry: named counters, gauges,
// and histograms created on first use and safe for concurrent access.
// The rankcube API boundary records every query into Default; servers
// expose it with Handler (plain text) and PublishExpvar (JSON under
// /debug/vars).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	publishOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide instance.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Outcome classifies how a query ended, the per-kind traffic breakdown
// the registry tracks.
type Outcome string

// Query outcomes.
const (
	OutcomeOK         Outcome = "ok"          // answered from the cube
	OutcomeDegraded   Outcome = "degraded"    // answered by baseline fallback
	OutcomeBudget     Outcome = "budget_trip" // failed on a Budget limit
	OutcomeCanceled   Outcome = "canceled"    // context canceled / timed out
	OutcomeOverloaded Outcome = "overloaded"  // rejected by the admission gate
	OutcomeError      Outcome = "error"       // any other typed failure
)

// RecordQuery folds one finished query into the registry: outcome count
// and latency histogram per kind, block reads per structure, retry and
// downgrade totals.
func (r *Registry) RecordQuery(kind string, o Outcome, d time.Duration, reads map[stats.Structure]int64, retries, downgrades int64) {
	r.Counter("queries." + kind + "." + string(o)).Add(1)
	r.Histogram("latency." + kind).Observe(d)
	for s, n := range reads {
		if n > 0 {
			r.Counter("blockreads." + s.String()).Add(n)
		}
	}
	if retries > 0 {
		r.Counter("faults.retries").Add(retries)
	}
	if downgrades > 0 {
		r.Counter("downgrades").Add(downgrades)
	}
}

// RecordQuarantine counts one store quarantine (first detected page
// corruption taking a structure out of service).
func (r *Registry) RecordQuarantine(kind stats.Structure) {
	r.Counter("quarantines." + kind.String()).Add(1)
}

// RecordQuarantineClear counts one store returning to full service, the
// recovery event that reconciles the quarantine counter: for every
// structure, quarantines.<kind> − quarantines.cleared.<kind> is the number
// of stores currently out of full service.
func (r *Registry) RecordQuarantineClear(kind stats.Structure) {
	r.Counter("quarantines.cleared." + kind.String()).Add(1)
}

// RecordRepair counts one quarantine repair pass over a store:
// checksum re-verification plus (when pages failed it) a rebuild from the
// base data. rebuiltPages is how many pages the repair re-materialized.
func (r *Registry) RecordRepair(kind stats.Structure, rebuiltPages int) {
	r.Counter("repairs." + kind.String()).Add(1)
	if rebuiltPages > 0 {
		r.Counter("repairs.pages_rebuilt").Add(int64(rebuiltPages))
	}
}

// RecordProbe counts one half-open circuit-breaker probe query against a
// repaired store: ok decides between re-admission and re-quarantine.
func (r *Registry) RecordProbe(kind stats.Structure, ok bool) {
	if ok {
		r.Counter("probes." + kind.String() + ".ok").Add(1)
	} else {
		r.Counter("probes." + kind.String() + ".failed").Add(1)
	}
}

// RecordSlowQuery counts one slow-query log admission.
func (r *Registry) RecordSlowQuery() { r.Counter("slowlog.admitted").Add(1) }

// names returns all metric names, sorted, with their render functions.
func (r *Registry) snapshot() (names []string, render map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	render = make(map[string]string, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		render[n] = fmt.Sprintf("%d", c.Value())
	}
	for n, g := range r.gauges {
		render[n] = fmt.Sprintf("%d", g.Value())
	}
	for n, h := range r.hists {
		render[n] = fmt.Sprintf("count=%d mean=%s %s", h.Count(), h.Mean().Round(time.Microsecond), h)
	}
	names = make([]string, 0, len(render))
	for n := range render {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, render
}

// WriteText renders the registry as stable "name value" lines.
func (r *Registry) WriteText(w io.Writer) {
	names, render := r.snapshot()
	for _, n := range names {
		fmt.Fprintf(w, "%s %s\n", n, render[n])
	}
}

// Handler serves the registry as plain text — the scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
}

// PublishExpvar publishes the registry under the given expvar name
// (conventionally "rankcube"), at most once per registry; expvar itself
// serves it at /debug/vars.
func (r *Registry) PublishExpvar(name string) {
	r.publishOnce.Do(func() {
		expvar.Publish(name, expvar.Func(func() any {
			names, render := r.snapshot()
			out := make(map[string]string, len(names))
			for _, n := range names {
				out[n] = render[n]
			}
			return out
		}))
	})
}
