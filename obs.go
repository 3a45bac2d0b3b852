package rankcube

// Observability surface: per-query execution traces (internal/stats), the
// process-wide metrics registry and the slow-query log (internal/obs).
//
// Tracing is per query: pass WithTrace(rankcube.NewTrace()) and render
// the span tree afterwards. The registry is process-wide and always on —
// every canonical entry point records its kind, outcome, latency bucket,
// and block reads into DefaultRegistry. The slow-query log is armed by
// SetSlowQueryThreshold (or per query by WithSlowLogThreshold) and keeps
// the rendered span trees of offenders in a bounded ring.

import (
	"io"
	"net/http"
	"time"

	"rankcube/internal/obs"
	"rankcube/internal/stats"
)

// Structure identifies which storage structure a block read touched, in
// per-structure read counts (Metrics.Reads, Span.Reads).
type Structure = stats.Structure

// Instrumented storage structures.
const (
	StructTable     = stats.StructTable
	StructCube      = stats.StructCube
	StructBlockTab  = stats.StructBlockTab
	StructBTree     = stats.StructBTree
	StructRTree     = stats.StructRTree
	StructSignature = stats.StructSignature
	StructJoinSig   = stats.StructJoinSig
)

// Trace is a per-query execution trace: a span tree attributing wall
// time, governed block reads, retries, downgrades, and heap high-water
// marks to engine phases. Attach one with WithTrace; render it with
// Render. A Trace serves one query at a time.
type Trace = stats.Trace

// Span is one node of a Trace's span tree.
type Span = stats.Span

// NewTrace returns an empty execution trace for WithTrace.
func NewTrace() *Trace { return stats.NewTrace() }

// Registry is a process-wide metrics registry: named atomic counters,
// gauges, and bounded log2-bucket latency histograms.
type Registry = obs.Registry

// Outcome classifies how a query ended in registry and slow-log records
// ("ok", "degraded", "budget_trip", "canceled", "overloaded", "error").
type Outcome = obs.Outcome

// Query outcomes.
const (
	OutcomeOK         = obs.OutcomeOK
	OutcomeDegraded   = obs.OutcomeDegraded
	OutcomeBudget     = obs.OutcomeBudget
	OutcomeCanceled   = obs.OutcomeCanceled
	OutcomeOverloaded = obs.OutcomeOverloaded
	OutcomeError      = obs.OutcomeError
)

// DefaultRegistry returns the registry every canonical entry point
// records into.
func DefaultRegistry() *Registry { return obs.Default() }

// MetricsHandler serves the default registry as plain "name value"
// text — the scrape endpoint.
func MetricsHandler() http.Handler { return obs.Default().Handler() }

// PublishExpvar publishes the default registry under the expvar name
// "rankcube" (served at /debug/vars). Safe to call more than once.
func PublishExpvar() { obs.Default().PublishExpvar("rankcube") }

// SlowQuery is one slow-query log entry, carrying the offender's
// rendered span tree.
type SlowQuery = obs.SlowEntry

// SetSlowQueryThreshold arms the process-wide slow-query log: queries
// whose wall time reaches d are recorded with their span trees. Zero
// disarms it. Per-query WithSlowLogThreshold overrides it.
func SetSlowQueryThreshold(d time.Duration) { obs.DefaultSlowLog().SetThreshold(d) }

// SlowQueries returns the retained slow-query log entries, oldest
// first.
func SlowQueries() []SlowQuery { return obs.DefaultSlowLog().Entries() }

// WriteSlowQueryLog dumps the retained slow-query entries — headers
// plus span trees — to w.
func WriteSlowQueryLog(w io.Writer) { obs.DefaultSlowLog().WriteText(w) }
