package obs

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// eventReq is the request the request-bound sample events belong to.
const eventReq = 7

var errSample = errors.New("boom")

// eventCases samples every kind at least once, and every guarded or
// two-way binding on each side of its guard.
var eventCases = []struct {
	name string
	ev   Event
	// counter is the one ExecutorSnapshot counter the Collector must move
	// (by exactly 1); nil means the event must move none.
	counter func(*ExecutorSnapshot) *int64
	// also checks a binding beyond the counter.
	also func(*testing.T, ExecutorSnapshot)
	// trace is the label the TraceRecorder must append (with ev.Subject as
	// the detail); "" means the ring must not record the event.
	trace string
}{
	{name: "request-shed", ev: RequestShed("x", eventReq), trace: "shed",
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Shed }},
	{name: "degraded-serve", ev: DegradedServe("x", eventReq, "cache"), trace: "degraded-serve",
		counter: func(s *ExecutorSnapshot) *int64 { return &s.DegradedServes }},
	{name: "breaker-open", ev: BreakerStateChanged("x", "v", BreakerClosed, BreakerOpen),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.BreakerOpens }},
	{name: "breaker-half-open", ev: BreakerStateChanged("x", "v", BreakerOpen, BreakerHalfOpen)},
	{name: "breaker-closed", ev: BreakerStateChanged("x", "v", BreakerHalfOpen, BreakerClosed)},
	{name: "checkpoint-taken", ev: CheckpointTaken("x", 10, 128),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Checkpoints }},
	{name: "wal-replayed", ev: WALReplayed("x", 3, 17),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.WALReplays }},
	{name: "process-restarted", ev: ProcessRestarted("x", "worker", 1, 5*time.Millisecond),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Restarts },
		also: func(t *testing.T, s ExecutorSnapshot) {
			if s.MTTR.Count != 1 || s.MTTR.Sum != 5*time.Millisecond {
				t.Errorf("MTTR = %+v, want the one 5ms downtime sample", s.MTTR)
			}
		}},
	{name: "escalation-raised", ev: EscalationRaised("x", "worker"),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Escalations }},
	{name: "rpc-ok", ev: RPCCompleted("x", "r1", eventReq, time.Millisecond, nil),
		also: wantVariant("r1", 1, 0, 1)},
	{name: "rpc-failed", ev: RPCCompleted("x", "r1", eventReq, time.Millisecond, errSample),
		also: wantVariant("r1", 1, 1, 1)},
	{name: "hedge-launched", ev: HedgeLaunched("x", "r2", eventReq, 2), trace: "hedge",
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Hedges }},
	{name: "hedge-won", ev: HedgeWon("x", "r2", eventReq, 2), trace: "hedge-won",
		counter: func(s *ExecutorSnapshot) *int64 { return &s.HedgeWins }},
	{name: "primary-won", ev: HedgeWon("x", "r1", eventReq, 1)},
	{name: "replica-suspect", ev: ReplicaStateChanged("x", "r1", ReplicaAlive, ReplicaSuspect),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.ReplicaSuspects }},
	{name: "replica-dead", ev: ReplicaStateChanged("x", "r1", ReplicaSuspect, ReplicaDead),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.ReplicaDeaths }},
	{name: "replica-alive", ev: ReplicaStateChanged("x", "r1", ReplicaDead, ReplicaAlive)},
	{name: "replica-ejected", ev: ReplicaEjected("x", "r1", 40*time.Millisecond, 2*time.Millisecond),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Ejections }},
	{name: "replica-reinstated", ev: ReplicaReinstated("x", "r1", 3),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.Reinstatements }},
	{name: "probe-launched", ev: ProbeLaunched("x", "r1"),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.ProbeLaunches }},
	{name: "quorum-reached", ev: QuorumReached("x", eventReq, 2, 2, 3),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.QuorumsReached }},
	{name: "vote-disagreement", ev: VoteDisagreement("x", eventReq, 2), trace: "vote-disagreement",
		counter: func(s *ExecutorSnapshot) *int64 { return &s.VoteDisagreement }},
	{name: "replica-outvoted", ev: ReplicaOutvoted("x", "r3", eventReq), trace: "outvoted",
		counter: func(s *ExecutorSnapshot) *int64 { return &s.ReplicasOutvoted },
		also:    wantVariant("r3", 0, 1, 0)},
	{name: "control-action", ev: ControlActionTaken("x", "replace", "detector:dead", "r2", "r2", "r4"),
		counter: func(s *ExecutorSnapshot) *int64 { return &s.ControlActions },
		also:    wantVariant("replace", 1, 0, 0)},
}

// wantVariant checks the one variant an event feeds.
func wantVariant(name string, executions, failures int64, samples uint64) func(*testing.T, ExecutorSnapshot) {
	return func(t *testing.T, s ExecutorSnapshot) {
		if len(s.Variants) != 1 || s.Variants[0].Variant != name {
			t.Fatalf("variants = %+v, want only %q", s.Variants, name)
		}
		v := s.Variants[0]
		if v.Executions != executions || v.Failures != failures || v.Latency.Count != samples {
			t.Errorf("variant %q = %d executions, %d failures, %d latency samples; want %d, %d, %d",
				name, v.Executions, v.Failures, v.Latency.Count, executions, failures, samples)
		}
	}
}

// eventSink is an observer outside the built-ins that wants events.
type eventSink struct {
	Nop
	got []Event
}

func (s *eventSink) Event(ev Event) { s.got = append(s.got, ev) }

// checkCollector asserts that c saw the case's event exactly once: the
// bound counter is 1, every other counter 0, and the extra binding holds.
func checkCollector(t *testing.T, c *Collector, counter func(*ExecutorSnapshot) *int64, also func(*testing.T, ExecutorSnapshot)) {
	t.Helper()
	snap := c.Snapshot()
	if counter == nil && also == nil {
		if len(snap) != 0 {
			t.Errorf("collector = %+v, want the event to leave no mark", snap)
		}
		return
	}
	if len(snap) != 1 || snap[0].Executor != "x" {
		t.Fatalf("collector = %+v, want only executor x", snap)
	}
	s := snap[0]
	var bound *int64
	if counter != nil {
		bound = counter(&s)
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			continue
		}
		want := int64(0)
		if f.Addr().Interface().(*int64) == bound {
			want = 1
		}
		if f.Int() != want {
			t.Errorf("%s = %d, want %d", v.Type().Field(i).Name, f.Int(), want)
		}
	}
	if also != nil {
		also(t, s)
	} else if len(s.Variants) != 0 {
		t.Errorf("variants = %+v, want none", s.Variants)
	}
}

// checkRecorder asserts that the trace of eventReq carries the case's
// label exactly once (or no event at all).
func checkRecorder(t *testing.T, tr *TraceRecorder, label, detail string) {
	t.Helper()
	tr.RequestEnd("x", eventReq, time.Millisecond, OutcomeSuccess)
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("traces = %+v, want 1", snap)
	}
	var want []TraceEvent
	if label != "" {
		want = []TraceEvent{{Kind: label, Detail: detail}}
	}
	if !reflect.DeepEqual(snap[0].Events, want) {
		t.Errorf("trace events = %+v, want %+v", snap[0].Events, want)
	}
}

// TestEveryKindThroughEveryObserver emits each sample through every
// receiver an emitter can be handed — nil, Nop, each built-in, an
// observer without the extension, and a combination — and checks the
// kind's table row is honoured exactly once per capable member.
func TestEveryKindThroughEveryObserver(t *testing.T) {
	sampled := make(map[Kind]bool)
	for _, tc := range eventCases {
		sampled[tc.ev.Kind] = true
		t.Run(tc.name, func(t *testing.T) {
			Emit(nil, tc.ev)
			Emit(Nop{}, tc.ev)

			c := NewCollector()
			Emit(c, tc.ev)
			checkCollector(t, c, tc.counter, tc.also)

			tr := NewTraceRecorder(2)
			tr.RequestStart("x", eventReq)
			Emit(tr, tc.ev)
			checkRecorder(t, tr, tc.trace, tc.ev.Subject)

			plain := &eventLog{}
			Emit(plain, tc.ev)

			c, tr, sink := NewCollector(), NewTraceRecorder(2), &eventSink{}
			o := Combine(c, tr, plain, sink)
			tr.RequestStart("x", eventReq)
			Emit(o, tc.ev)
			checkCollector(t, c, tc.counter, tc.also)
			checkRecorder(t, tr, tc.trace, tc.ev.Subject)
			if len(sink.got) != 1 || sink.got[0] != tc.ev {
				t.Errorf("sink got %+v, want the event once, intact", sink.got)
			}
			if len(plain.events) != 0 {
				t.Errorf("observer without the extension saw %v", plain.events)
			}
		})
	}
	for k := Kind(0); k < nKinds; k++ {
		if !sampled[k] {
			t.Errorf("kind %v has no sample in eventCases", k)
		}
	}
}

// TestEveryCounterExported is the generic guard against a counter or an
// event falling off the exporter: every int64 field of ExecutorSnapshot
// must have a counterRows row, every row a series in the /metrics
// document, and every counter something that feeds it.
func TestEveryCounterExported(t *testing.T) {
	var probe ExecutorSnapshot
	rowOf := make(map[*int64]counterID)
	for id := cRequests; id < nCounters; id++ {
		row := counterRows[id]
		if row.series == "" || row.help == "" || row.field == nil {
			t.Fatalf("counter row %d is incomplete: %+v", id, row)
		}
		if prev, dup := rowOf[row.field(&probe)]; dup {
			t.Errorf("counter rows %d and %d bind the same snapshot field", prev, id)
		}
		rowOf[row.field(&probe)] = id
	}
	v := reflect.ValueOf(&probe).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			if _, ok := rowOf[f.Addr().Interface().(*int64)]; !ok {
				t.Errorf("ExecutorSnapshot.%s has no counterRows row, so nothing fills or exports it", v.Type().Field(i).Name)
			}
		}
	}

	names := make(map[string]Kind)
	for k := Kind(0); k < nKinds; k++ {
		row := kinds[k]
		if row.name == "" {
			t.Errorf("kind %d has no kinds row", k)
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, row.name)
		}
		names[row.name] = k
		if row.counter == noCounter && row.also == nil {
			t.Errorf("kind %v binds nothing: the Collector would drop it", k)
		}
	}

	// One of everything under one executor: the three request outcomes,
	// the recovery callbacks, a variant left in flight, and every sample.
	c := NewCollector()
	for _, outcome := range []Outcome{OutcomeSuccess, OutcomeMasked, OutcomeFailed} {
		c.RequestStart("x", 1)
		c.RequestEnd("x", 1, time.Millisecond, outcome)
	}
	c.Adjudicated("x", 1, true, true)
	c.ComponentDisabled("x", "v", 1)
	c.RetryAttempt("x", "v", 1, 2)
	c.Rollback("x", 1)
	c.VariantStart("x", "v", 1)
	for _, tc := range eventCases {
		Emit(c, tc.ev)
	}
	s := c.Snapshot()[0]
	v = reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() == 0 {
			t.Errorf("ExecutorSnapshot.%s stayed 0: no callback or kinds row feeds it", v.Type().Field(i).Name)
		}
	}

	var b strings.Builder
	WritePrometheus(&b, c)
	out := b.String()
	for id := cRequests; id < nCounters; id++ {
		row := counterRows[id]
		typ := "counter"
		if row.gauge {
			typ = "gauge"
		}
		for _, want := range []string{
			"# HELP " + row.series + " " + row.help + "\n",
			"# TYPE " + row.series + " " + typ + "\n",
			"\n" + row.series + `{executor="x"} `,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("/metrics is missing %q", want)
			}
		}
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := NewCollector()
	for name, o := range map[string]Observer{
		"nil":       nil,
		"nop":       Nop{},
		"collector": c,
		"combined":  Combine(c, Nop{}),
	} {
		for _, tc := range eventCases {
			Emit(o, tc.ev) // first sight of a name inserts copy-on-write
			if allocs := testing.AllocsPerRun(100, func() { Emit(o, tc.ev) }); allocs != 0 {
				t.Errorf("Emit(%s, %s) allocates %v times per event, want 0", name, tc.name, allocs)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if got := KindHedgeWon.String(); got != "hedge-won" {
		t.Errorf("KindHedgeWon = %q", got)
	}
	if got := nKinds.String(); got != "unknown" {
		t.Errorf("out-of-range kind = %q, want unknown", got)
	}
}

func TestCollectorRecoveryCounters(t *testing.T) {
	c := NewCollector()
	Emit(c, CheckpointTaken("worker", 1, 64))
	Emit(c, CheckpointTaken("worker", 2, 64))
	Emit(c, WALReplayed("worker", 5, 0))
	Emit(c, ProcessRestarted("sup", "worker", 1, 2*time.Millisecond))
	Emit(c, ProcessRestarted("sup", "worker", 2, 4*time.Millisecond))
	Emit(c, EscalationRaised("sup", "worker"))

	var worker, sup ExecutorSnapshot
	for _, s := range c.Snapshot() {
		switch s.Executor {
		case "worker":
			worker = s
		case "sup":
			sup = s
		}
	}
	if worker.Checkpoints != 2 || worker.WALReplays != 1 {
		t.Errorf("worker snapshot = %+v", worker)
	}
	if sup.Restarts != 2 || sup.Escalations != 1 {
		t.Errorf("sup snapshot = %+v", sup)
	}
	if sup.MTTR.Count != 2 {
		t.Errorf("MTTR count = %d, want 2", sup.MTTR.Count)
	}
	h := c.ExecutorMTTR("sup")
	if h == nil || h.Count() != 2 {
		t.Fatalf("ExecutorMTTR = %v", h)
	}
	if c.ExecutorMTTR("unknown") != nil {
		t.Error("ExecutorMTTR should be nil for unobserved executors")
	}
}

func TestPrometheusRecoverySeries(t *testing.T) {
	c := NewCollector()
	Emit(c, CheckpointTaken("worker", 1, 64))
	Emit(c, ProcessRestarted("sup", "worker", 1, 3*time.Millisecond))
	var b strings.Builder
	WritePrometheus(&b, c)
	out := b.String()
	for _, want := range []string{
		`redundancy_checkpoints_taken_total{executor="worker"} 1`,
		`redundancy_process_restarts_total{executor="sup"} 1`,
		`redundancy_mttr_seconds{executor="sup",quantile="0.99"}`,
		`redundancy_mttr_seconds_count{executor="sup"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// Executors with no restarts must not produce an all-zero MTTR series.
	if strings.Contains(out, `redundancy_mttr_seconds_count{executor="worker"}`) {
		t.Error("worker (no restarts) should have no MTTR series")
	}
}

// TestSnapshotAllocsIndependentOfExecutors pins that Snapshot fills each
// executor's row in place: a row built in a local and filled through the
// counterRows accessors escapes, costing one allocation per executor on
// every control-plane tick.
func TestSnapshotAllocsIndependentOfExecutors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(executors int) float64 {
		c := NewCollector()
		for i := 0; i < executors; i++ {
			name := fmt.Sprintf("exec-%d", i)
			c.RequestStart(name, 1)
			c.RequestEnd(name, 1, time.Millisecond, OutcomeSuccess)
		}
		return testing.AllocsPerRun(100, func() { _ = c.Snapshot() })
	}
	if two, eight := allocs(2), allocs(8); eight != two {
		t.Errorf("Snapshot allocates %v times over 8 executors, %v over 2: a row escapes per executor", eight, two)
	}
}
