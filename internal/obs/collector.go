package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Collector is the histogram-backed metrics Observer: it keeps, per
// executor, event counters and a request-latency Histogram, and per
// (executor, variant) an execution/failure counter pair and a variant-
// latency Histogram.
//
// The hot path is lock-free and allocation-free in steady state: stats
// objects are resolved through an atomically swapped read-only map
// (copy-on-write on first sight of a new executor or variant name) and
// all counters are atomics. The mutex is only taken while inserting a
// name never seen before.
type Collector struct {
	mu    sync.Mutex // serializes copy-on-write inserts
	execs atomic.Pointer[map[string]*ExecutorStats]
}

var _ Observer = (*Collector)(nil)

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// counterID indexes ExecutorStats.counters and counterRows.
type counterID uint8

const (
	// noCounter is the zero value, so a kinds row that names no counter
	// bumps none; its slot in the counter arrays stays unused.
	noCounter counterID = iota
	cRequests
	cSuccesses
	cMasked
	cFailures
	cDetected
	cDisabled
	cRetries
	cRollbacks
	cShed
	cDegraded
	cBreakerOpens
	cCheckpoints
	cWALReplays
	cRestarts
	cEscalations
	cHedges
	cHedgeWins
	cSuspects
	cDeaths
	cEjections
	cReinstatements
	cProbeLaunches
	cQuorums
	cVoteDisagreements
	cOutvoted
	cControlActions
	cInflight
	nCounters
)

// counterRow binds one counter to its ExecutorSnapshot field and its
// /metrics series. Snapshot and WritePrometheus are driven from
// counterRows alone, so a counter cannot be kept without being
// exported; TestEveryCounterExported walks ExecutorSnapshot to check
// the converse, that no int64 field lacks a row.
type counterRow struct {
	series, help string
	gauge        bool
	field        func(*ExecutorSnapshot) *int64
}

// counterRows is in /metrics order: the span-callback counters, the
// event counters in kinds order, and the in-flight gauge last.
var counterRows = [nCounters]counterRow{
	cRequests: {series: "redundancy_requests_total", help: "Requests handled by the executor.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Requests }},
	cSuccesses: {series: "redundancy_successes_total", help: "Requests served without any variant failure.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Successes }},
	cMasked: {series: "redundancy_failures_masked_total", help: "Requests on which redundancy masked a variant failure.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.FailuresMasked }},
	cFailures: {series: "redundancy_failures_total", help: "Requests on which the executor failed.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Failures }},
	cDetected: {series: "redundancy_failures_detected_total", help: "Requests on which at least one variant result was rejected.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.FailuresDetected }},
	cDisabled: {series: "redundancy_components_disabled_total", help: "Components taken out of rotation.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Disabled }},
	cRetries: {series: "redundancy_retries_total", help: "Retry attempts after a rejected result.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Retries }},
	cRollbacks: {series: "redundancy_rollbacks_total", help: "State rollbacks and compensations executed.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Rollbacks }},
	cShed: {series: "redundancy_requests_shed_total", help: "Requests rejected fast by a bulkhead under overload.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Shed }},
	cDegraded: {series: "redundancy_degraded_serves_total", help: "Requests answered by the degradation ladder.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.DegradedServes }},
	cBreakerOpens: {series: "redundancy_breaker_opens_total", help: "Circuit-breaker transitions into the open state.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.BreakerOpens }},
	cCheckpoints: {series: "redundancy_checkpoints_taken_total", help: "Durable checkpoint snapshots committed.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Checkpoints }},
	cWALReplays: {series: "redundancy_wal_replays_total", help: "WAL recovery replays completed after a restart.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.WALReplays }},
	cRestarts: {series: "redundancy_process_restarts_total", help: "Supervised process restarts.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Restarts }},
	cEscalations: {series: "redundancy_escalations_total", help: "Restart-intensity escalations raised to the parent supervisor.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Escalations }},
	cHedges: {series: "redundancy_hedges_total", help: "Hedged RPC attempts launched beyond the primary.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Hedges }},
	cHedgeWins: {series: "redundancy_hedge_wins_total", help: "Requests whose returned result came from a hedge attempt.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.HedgeWins }},
	cSuspects: {series: "redundancy_replica_suspects_total", help: "Failure-detector transitions into the suspect state.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.ReplicaSuspects }},
	cDeaths: {series: "redundancy_replica_deaths_total", help: "Failure-detector transitions into the dead state.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.ReplicaDeaths }},
	cEjections: {series: "redundancy_ejections_total", help: "Endpoints ejected from rotation as latency outliers.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Ejections }},
	cReinstatements: {series: "redundancy_reinstatements_total", help: "Ejected endpoints restored to rotation after probation.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.Reinstatements }},
	cProbeLaunches: {series: "redundancy_probe_launches_total", help: "Trickle probes granted to ejected endpoints.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.ProbeLaunches }},
	cQuorums: {series: "redundancy_quorums_reached_total", help: "Requests decided by a distributed quorum verdict.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.QuorumsReached }},
	cVoteDisagreements: {series: "redundancy_vote_disagreements_total", help: "Quorum requests whose successful replies disagreed.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.VoteDisagreement }},
	cOutvoted: {series: "redundancy_replicas_outvoted_total", help: "Successful replica replies rejected by a quorum verdict.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.ReplicasOutvoted }},
	cControlActions: {series: "redundancy_control_actions_total", help: "Reconfigurations performed by the autonomic controller.",
		field: func(s *ExecutorSnapshot) *int64 { return &s.ControlActions }},
	cInflight: {series: "redundancy_inflight_variants", help: "Variant executions currently running.", gauge: true,
		field: func(s *ExecutorSnapshot) *int64 { return &s.InflightVariants }},
}

// ExecutorStats aggregates the observations of one executor.
type ExecutorStats struct {
	name string

	counters [nCounters]atomic.Int64

	latency Histogram // request latency
	mttr    Histogram // supervised-restart recovery time

	mu       sync.Mutex // serializes copy-on-write inserts
	variants atomic.Pointer[map[string]*VariantStats]
}

// VariantStats aggregates the observations of one variant under one
// executor.
type VariantStats struct {
	name       string
	executions atomic.Int64
	failures   atomic.Int64
	latency    Histogram
}

// observe records one execution of the variant.
func (v *VariantStats) observe(latency time.Duration, err error) {
	v.executions.Add(1)
	if err != nil {
		v.failures.Add(1)
	}
	v.latency.Observe(latency)
}

// exec resolves (creating on first use) the stats of an executor.
func (c *Collector) exec(name string) *ExecutorStats {
	if m := c.execs.Load(); m != nil {
		if e, ok := (*m)[name]; ok {
			return e
		}
	}
	return c.addExec(name)
}

// addExec is the copy-on-write slow path of exec.
func (c *Collector) addExec(name string) *ExecutorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.execs.Load()
	if old != nil {
		if e, ok := (*old)[name]; ok {
			return e
		}
	}
	next := make(map[string]*ExecutorStats, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	e := &ExecutorStats{name: name}
	next[name] = e
	c.execs.Store(&next)
	return e
}

// variant resolves (creating on first use) the stats of a variant under
// an executor.
func (e *ExecutorStats) variant(name string) *VariantStats {
	if m := e.variants.Load(); m != nil {
		if v, ok := (*m)[name]; ok {
			return v
		}
	}
	return e.addVariant(name)
}

// addVariant is the copy-on-write slow path of variant.
func (e *ExecutorStats) addVariant(name string) *VariantStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.variants.Load()
	if old != nil {
		if v, ok := (*old)[name]; ok {
			return v
		}
	}
	next := make(map[string]*VariantStats, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	v := &VariantStats{name: name}
	next[name] = v
	e.variants.Store(&next)
	return v
}

// RequestStart implements Observer.
func (c *Collector) RequestStart(executor string, _ uint64) {
	c.exec(executor).counters[cRequests].Add(1)
}

// RequestEnd implements Observer.
func (c *Collector) RequestEnd(executor string, _ uint64, latency time.Duration, outcome Outcome) {
	e := c.exec(executor)
	e.latency.Observe(latency)
	switch outcome {
	case OutcomeSuccess:
		e.counters[cSuccesses].Add(1)
	case OutcomeMasked:
		e.counters[cMasked].Add(1)
	case OutcomeFailed:
		e.counters[cFailures].Add(1)
	}
}

// VariantStart implements Observer.
func (c *Collector) VariantStart(executor, _ string, _ uint64) {
	c.exec(executor).counters[cInflight].Add(1)
}

// VariantEnd implements Observer.
func (c *Collector) VariantEnd(executor, variant string, _ uint64, latency time.Duration, err error) {
	e := c.exec(executor)
	e.counters[cInflight].Add(-1)
	e.variant(variant).observe(latency, err)
}

// Adjudicated implements Observer.
func (c *Collector) Adjudicated(executor string, _ uint64, _, failureDetected bool) {
	if failureDetected {
		c.exec(executor).counters[cDetected].Add(1)
	}
}

// ComponentDisabled implements Observer.
func (c *Collector) ComponentDisabled(executor, _ string, _ uint64) {
	c.exec(executor).counters[cDisabled].Add(1)
}

// RetryAttempt implements Observer.
func (c *Collector) RetryAttempt(executor, _ string, _ uint64, _ int) {
	c.exec(executor).counters[cRetries].Add(1)
}

// Rollback implements Observer.
func (c *Collector) Rollback(executor string, _ uint64) {
	c.exec(executor).counters[cRollbacks].Add(1)
}

// VariantSnapshot is a point-in-time copy of one variant's stats.
type VariantSnapshot struct {
	Variant    string            `json:"variant"`
	Executions int64             `json:"executions"`
	Failures   int64             `json:"failures"`
	Latency    HistogramSnapshot `json:"latency"`
}

// ExecutorSnapshot is a point-in-time copy of one executor's stats.
type ExecutorSnapshot struct {
	Executor         string            `json:"executor"`
	Requests         int64             `json:"requests"`
	Successes        int64             `json:"successes"`
	FailuresMasked   int64             `json:"failures_masked"`
	Failures         int64             `json:"failures"`
	FailuresDetected int64             `json:"failures_detected"`
	Disabled         int64             `json:"components_disabled"`
	Retries          int64             `json:"retries"`
	Rollbacks        int64             `json:"rollbacks"`
	InflightVariants int64             `json:"inflight_variants"`
	Shed             int64             `json:"shed,omitempty"`
	DegradedServes   int64             `json:"degraded_serves,omitempty"`
	BreakerOpens     int64             `json:"breaker_opens,omitempty"`
	Checkpoints      int64             `json:"checkpoints,omitempty"`
	WALReplays       int64             `json:"wal_replays,omitempty"`
	Restarts         int64             `json:"restarts,omitempty"`
	Escalations      int64             `json:"escalations,omitempty"`
	Hedges           int64             `json:"hedges,omitempty"`
	HedgeWins        int64             `json:"hedge_wins,omitempty"`
	ReplicaSuspects  int64             `json:"replica_suspects,omitempty"`
	ReplicaDeaths    int64             `json:"replica_deaths,omitempty"`
	Ejections        int64             `json:"ejections,omitempty"`
	Reinstatements   int64             `json:"reinstatements,omitempty"`
	ProbeLaunches    int64             `json:"probe_launches,omitempty"`
	QuorumsReached   int64             `json:"quorums_reached,omitempty"`
	VoteDisagreement int64             `json:"vote_disagreements,omitempty"`
	ReplicasOutvoted int64             `json:"replicas_outvoted,omitempty"`
	ControlActions   int64             `json:"control_actions,omitempty"`
	Latency          HistogramSnapshot `json:"latency"`
	MTTR             HistogramSnapshot `json:"mttr,omitempty"`
	Variants         []VariantSnapshot `json:"variants,omitempty"`
}

// Snapshot returns a copy of all executor stats, sorted by executor name
// (variants sorted by variant name) for stable reporting.
func (c *Collector) Snapshot() []ExecutorSnapshot {
	m := c.execs.Load()
	if m == nil {
		return nil
	}
	out := make([]ExecutorSnapshot, len(*m))
	i := 0
	for _, e := range *m {
		// Filled in place: the row accessors are func values, so a pointer
		// to a local snapshot would escape and cost an allocation per
		// executor.
		e.fill(&out[i])
		i++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Executor < out[j].Executor })
	return out
}

// Executor returns the snapshot of one executor's stats: an empty row
// under that name if the executor has not been observed.
func (c *Collector) Executor(name string) ExecutorSnapshot {
	s := ExecutorSnapshot{Executor: name}
	if m := c.execs.Load(); m != nil {
		if e, ok := (*m)[name]; ok {
			e.fill(&s)
		}
	}
	return s
}

// fill copies the executor's stats into s.
func (e *ExecutorStats) fill(s *ExecutorSnapshot) {
	*s = ExecutorSnapshot{Executor: e.name, Latency: e.latency.Snapshot(), MTTR: e.mttr.Snapshot()}
	for id := cRequests; id < nCounters; id++ {
		*counterRows[id].field(s) = e.counters[id].Load()
	}
	if vm := e.variants.Load(); vm != nil {
		for _, v := range *vm {
			s.Variants = append(s.Variants, VariantSnapshot{
				Variant:    v.name,
				Executions: v.executions.Load(),
				Failures:   v.failures.Load(),
				Latency:    v.latency.Snapshot(),
			})
		}
		sort.Slice(s.Variants, func(i, j int) bool {
			return s.Variants[i].Variant < s.Variants[j].Variant
		})
	}
}

// Executions is the executor's variant executions, summed over its
// variants.
func (s ExecutorSnapshot) Executions() int64 {
	var n int64
	for _, v := range s.Variants {
		n += v.Executions
	}
	return n
}

// ExecutionsPerRequest is the execution-cost measure of the paper's
// Section 4.1: the average number of variant executions needed to serve
// one request. It reads 0 before any request has been observed.
func (s ExecutorSnapshot) ExecutionsPerRequest() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Executions()) / float64(s.Requests)
}

// Reliability is the fraction of requests served successfully. An idle
// executor reads 1: with no requests observed there are no observed
// failures, and reporting 0 would make it look broken.
func (s ExecutorSnapshot) Reliability() float64 {
	if s.Requests == 0 {
		return 1
	}
	return 1 - float64(s.Failures)/float64(s.Requests)
}

// ExecutorLatency returns the request-latency histogram of an executor,
// or nil if the executor has not been observed. The histogram keeps
// accumulating; callers must treat it as read-only.
func (c *Collector) ExecutorLatency(executor string) *Histogram {
	if m := c.execs.Load(); m != nil {
		if e, ok := (*m)[executor]; ok {
			return &e.latency
		}
	}
	return nil
}

// ExecutorMTTR returns the supervised-restart recovery-time histogram of
// an executor (fed by ProcessRestarted downtime samples), or nil if the
// executor has not been observed. The histogram keeps accumulating;
// callers must treat it as read-only.
func (c *Collector) ExecutorMTTR(executor string) *Histogram {
	if m := c.execs.Load(); m != nil {
		if e, ok := (*m)[executor]; ok {
			return &e.mttr
		}
	}
	return nil
}

// VariantLatency returns the latency histogram of a variant under an
// executor, or nil if that pair has not been observed.
func (c *Collector) VariantLatency(executor, variant string) *Histogram {
	m := c.execs.Load()
	if m == nil {
		return nil
	}
	e, ok := (*m)[executor]
	if !ok {
		return nil
	}
	vm := e.variants.Load()
	if vm == nil {
		return nil
	}
	v, ok := (*vm)[variant]
	if !ok {
		return nil
	}
	return &v.latency
}
