package redundancy

import (
	"context"
	"net/http"

	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
)

// The observation layer: a single Observer interface receives span-style
// callbacks from every redundancy executor, with composable built-in
// implementations — per-executor counters and latency histograms
// (Collector), bounded request traces (TraceRecorder), and an HTTP
// exporter (ObservationHandler). Attach observers to pattern executors
// with WithObserver. A Collector row carries the paper's cost model:
// ExecutorObservation's ExecutionsPerRequest and Reliability.
type (
	// Observer receives span-style callbacks from redundancy executors;
	// see the interface documentation for the callback contract.
	Observer = obs.Observer
	// ObservationOutcome classifies the end state of one observed request.
	ObservationOutcome = obs.Outcome
	// Collector is the histogram-backed metrics observer: per-executor and
	// per-variant counters and latency quantiles, lock-free on the hot
	// path.
	Collector = obs.Collector
	// ExecutorObservation is a point-in-time copy of one executor's
	// collected stats; Collector.Executor reads one by executor name.
	ExecutorObservation = obs.ExecutorSnapshot
	// VariantObservation is a point-in-time copy of one variant's
	// collected stats.
	VariantObservation = obs.VariantSnapshot
	// LatencyHistogram is a lock-free fixed-bucket latency histogram.
	LatencyHistogram = obs.Histogram
	// LatencySnapshot is a point-in-time copy of a LatencyHistogram.
	LatencySnapshot = obs.HistogramSnapshot
	// TraceRecorder keeps the last N completed request traces in a ring
	// buffer, exportable as JSON.
	TraceRecorder = obs.TraceRecorder
	// RequestTrace is the recorded history of one request through an
	// executor.
	RequestTrace = obs.Trace
	// NopObserver is an Observer that does nothing.
	NopObserver = obs.Nop

	// TraceContext is the causal identity of one request: a TraceID
	// shared by every span the request causes (locally nested executors
	// and remote replicas alike) plus this span's own SpanID and parent.
	// Executors with a trace-recording observer derive and propagate it
	// through context.Context automatically; it crosses process
	// boundaries in-band on the RPC frame.
	TraceContext = obs.TraceContext
	// TracedRPCAttempt is one wire attempt of a remote call in a
	// request's hedge lineage: endpoint, its span, and whether it won,
	// was cancelled by a faster sibling, or failed.
	TracedRPCAttempt = obs.RPCAttempt

	// SLObjective is one executor's service-level objective: a target
	// success ratio and (optionally) a latency bound that a request must
	// meet to count as good.
	SLObjective = obs.SLObjective
	// SLOConfig configures an SLOTracker: default and per-executor
	// objectives plus the fast/slow burn-rate windows and thresholds.
	SLOConfig = obs.SLOConfig
	// SLOTracker is an Observer that tracks per-executor availability
	// and latency objectives with multi-window burn-rate gauges.
	SLOTracker = obs.SLOTracker
	// SLOStatus is a point-in-time view of one executor's objective:
	// error ratios and burn rates per window, and whether every window
	// burns above threshold (Breaching).
	SLOStatus = obs.SLOStatus
	// SLOWindowStatus is the burn state of one window of an SLOStatus.
	SLOWindowStatus = obs.SLOWindowStatus
)

// Request outcomes reported to RequestEnd.
const (
	// OutcomeSuccess: a result was delivered with no masked failure.
	OutcomeSuccess = obs.OutcomeSuccess
	// OutcomeMasked: a variant failed but redundancy delivered a result.
	OutcomeMasked = obs.OutcomeMasked
	// OutcomeFailed: the executor itself failed.
	OutcomeFailed = obs.OutcomeFailed
)

// WithObserver attaches an observer to a pattern executor. Repeated
// options combine: every attached observer sees every event.
func WithObserver(o Observer) PatternOption { return pattern.WithObserver(o) }

// NewCollector returns an empty histogram-backed metrics observer.
func NewCollector() *Collector { return obs.NewCollector() }

// NewTraceRecorder returns an observer keeping the last n completed
// request traces.
func NewTraceRecorder(n int) *TraceRecorder { return obs.NewTraceRecorder(n) }

// CombineObservers composes observers into one; nil entries are dropped
// and no live observers yield nil (the executors' unobserved fast path).
func CombineObservers(observers ...Observer) Observer { return obs.Combine(observers...) }

// ObservationHandler returns an HTTP handler exposing the observation
// layer: /metrics (Prometheus text format), /vars (JSON snapshot), and
// /traces (the trace ring as JSON). Either collector argument may be
// nil. Extras mount additional endpoints — pass a HealthEngine's
// Extra() to add /healthz and the health gauges.
func ObservationHandler(c *Collector, tr *TraceRecorder, extras ...ObservationEndpoint) http.Handler {
	return obs.Handler(c, tr, extras...)
}

// NextRequestID returns a process-unique identifier correlating the
// callbacks of one observed request; custom executors emitting their own
// spans should use it.
func NextRequestID() uint64 { return obs.NextRequestID() }

// SeedTraceIDs reseeds the deterministic span-ID generator. Runs that
// want byte-identical trace files across invocations (simulations, CI)
// call it once at startup with their run seed.
func SeedTraceIDs(seed uint64) { obs.SeedTraceIDs(seed) }

// WithTraceContext returns a context carrying tc; executors and remote
// variants derive child spans from it.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return obs.WithTraceContext(ctx, tc)
}

// TraceContextFrom extracts the request's trace context, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	return obs.TraceContextFrom(ctx)
}

// StartTrace derives a span for ctx — a child of the context's trace if
// one is present, a fresh root otherwise — and returns the context
// carrying it. Application code that wants its own root span around a
// batch of executor calls uses this; executors call it implicitly.
func StartTrace(ctx context.Context) (context.Context, TraceContext) {
	return obs.StartTrace(ctx)
}

// NewSLOTracker returns an Observer tracking availability/latency
// objectives with fast and slow burn-rate windows. Combine it into an
// executor's observer, mount its Extra() on the ObservationHandler for
// the /slo endpoint and Prometheus gauges, and attach it to a
// HealthEngine so burn-rate breaches degrade /healthz.
func NewSLOTracker(cfg SLOConfig) *SLOTracker { return obs.NewSLOTracker(cfg) }

// PprofEndpoints returns net/http/pprof endpoints as observation
// extras, for mounting CPU/heap/goroutine profiling next to /metrics on
// an ObservationHandler. Gate them behind a flag: profiles expose
// internals and profiling costs CPU.
func PprofEndpoints() []ObservationEndpoint { return obs.PprofExtras() }
