package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// eventLog is a test observer that records callback names.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) RequestStart(string, uint64)                       { l.add("request-start") }
func (l *eventLog) RequestEnd(string, uint64, time.Duration, Outcome) { l.add("request-end") }
func (l *eventLog) VariantStart(string, string, uint64)               { l.add("variant-start") }
func (l *eventLog) VariantEnd(string, string, uint64, time.Duration, error) {
	l.add("variant-end")
}
func (l *eventLog) Adjudicated(string, uint64, bool, bool)   { l.add("adjudicated") }
func (l *eventLog) ComponentDisabled(string, string, uint64) { l.add("component-disabled") }
func (l *eventLog) RetryAttempt(string, string, uint64, int) { l.add("retry") }
func (l *eventLog) Rollback(string, uint64)                  { l.add("rollback") }

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeSuccess: "success",
		OutcomeMasked:  "masked",
		OutcomeFailed:  "failed",
		Outcome(42):    "unknown",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestNextRequestIDUnique(t *testing.T) {
	const n = 1000
	ids := make(chan uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/8; j++ {
				ids <- NextRequestID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[uint64]bool)
	for id := range ids {
		if id == 0 {
			t.Fatal("request ID 0 issued; 0 is the unobserved sentinel")
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %d", id)
		}
		seen[id] = true
	}
}

func TestCombine(t *testing.T) {
	if Combine() != nil {
		t.Error("Combine() should be nil")
	}
	if Combine(nil, nil) != nil {
		t.Error("Combine(nil, nil) should be nil")
	}
	var l eventLog
	if got := Combine(nil, &l); got != Observer(&l) {
		t.Error("single live observer should be returned as itself")
	}

	var a, b eventLog
	m := Combine(&a, nil, Combine(&b, Nop{}))
	m.RequestStart("x", 1)
	m.VariantStart("x", "v", 1)
	m.VariantEnd("x", "v", 1, time.Millisecond, nil)
	m.Adjudicated("x", 1, true, false)
	m.ComponentDisabled("x", "v", 1)
	m.RetryAttempt("x", "v", 1, 2)
	m.Rollback("x", 1)
	m.RequestEnd("x", 1, time.Millisecond, OutcomeSuccess)
	if len(a.events) != 8 || len(b.events) != 8 {
		t.Errorf("fan-out delivered %d/%d events, want 8/8", len(a.events), len(b.events))
	}
}

// taggedLog appends "<tag>:<event>" to a log shared between observers,
// so fan-out order across members is visible.
type taggedLog struct {
	tag string
	mu  *sync.Mutex
	out *[]string
}

func (l taggedLog) add(e string) {
	l.mu.Lock()
	*l.out = append(*l.out, l.tag+":"+e)
	l.mu.Unlock()
}

func (l taggedLog) RequestStart(string, uint64)                             { l.add("request-start") }
func (l taggedLog) RequestEnd(string, uint64, time.Duration, Outcome)       { l.add("request-end") }
func (l taggedLog) VariantStart(string, string, uint64)                     { l.add("variant-start") }
func (l taggedLog) VariantEnd(string, string, uint64, time.Duration, error) { l.add("variant-end") }
func (l taggedLog) Adjudicated(string, uint64, bool, bool)                  { l.add("adjudicated") }
func (l taggedLog) ComponentDisabled(string, string, uint64)                { l.add("component-disabled") }
func (l taggedLog) RetryAttempt(string, string, uint64, int)                { l.add("retry") }
func (l taggedLog) Rollback(string, uint64)                                 { l.add("rollback") }

func TestCombineFanOutOrdering(t *testing.T) {
	// Every callback reaches the members in registration order, nil
	// members and nesting notwithstanding.
	var (
		mu  sync.Mutex
		out []string
	)
	mk := func(tag string) taggedLog { return taggedLog{tag: tag, mu: &mu, out: &out} }
	m := Combine(nil, mk("a"), Combine(mk("b"), nil, mk("c")))
	m.RequestStart("x", 1)
	m.VariantEnd("x", "v", 1, time.Millisecond, nil)
	m.RequestEnd("x", 1, time.Millisecond, OutcomeSuccess)
	want := []string{
		"a:request-start", "b:request-start", "c:request-start",
		"a:variant-end", "b:variant-end", "c:variant-end",
		"a:request-end", "b:request-end", "c:request-end",
	}
	if len(out) != len(want) {
		t.Fatalf("events = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("events = %v, want %v", out, want)
		}
	}
}

func TestCombineFlattensNested(t *testing.T) {
	var a, b, c eventLog
	m, ok := Combine(Combine(&a, &b), nil, &c).(multi)
	if !ok {
		t.Fatalf("combined observer is %T, want multi", Combine(Combine(&a, &b), nil, &c))
	}
	if len(m) != 3 {
		t.Errorf("flattened members = %d, want 3", len(m))
	}
	for _, o := range m {
		if _, nested := o.(multi); nested {
			t.Error("nested multi survived flattening")
		}
	}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	req := NextRequestID()
	c.RequestStart("exec", req)
	c.VariantStart("exec", "v1", req)
	c.VariantEnd("exec", "v1", req, 2*time.Millisecond, nil)
	c.VariantStart("exec", "v2", req)
	c.VariantEnd("exec", "v2", req, 3*time.Millisecond, errors.New("boom"))
	c.Adjudicated("exec", req, true, true)
	c.ComponentDisabled("exec", "v2", req)
	c.RetryAttempt("exec", "v2", req, 2)
	c.Rollback("exec", req)
	c.RequestEnd("exec", req, 5*time.Millisecond, OutcomeMasked)

	snap := c.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d executors, want 1", len(snap))
	}
	e := snap[0]
	if e.Executor != "exec" || e.Requests != 1 || e.FailuresMasked != 1 ||
		e.Failures != 0 || e.FailuresDetected != 1 || e.Disabled != 1 ||
		e.Retries != 1 || e.Rollbacks != 1 || e.InflightVariants != 0 {
		t.Errorf("executor snapshot = %+v", e)
	}
	if e.Latency.Count != 1 || e.Latency.Sum != 5*time.Millisecond {
		t.Errorf("request latency = %+v", e.Latency)
	}
	if len(e.Variants) != 2 || e.Variants[0].Variant != "v1" || e.Variants[1].Variant != "v2" {
		t.Fatalf("variants = %+v", e.Variants)
	}
	if e.Variants[0].Executions != 1 || e.Variants[0].Failures != 0 {
		t.Errorf("v1 = %+v", e.Variants[0])
	}
	if e.Variants[1].Executions != 1 || e.Variants[1].Failures != 1 {
		t.Errorf("v2 = %+v", e.Variants[1])
	}
}

// TestExecutorSnapshotCostModel reads the paper's Section 4.1 cost
// model off a collected row: variant executions per request (summed over
// the variants) and the fraction of requests served.
func TestExecutorSnapshotCostModel(t *testing.T) {
	c := NewCollector()
	req := NextRequestID() // three executions, one failed: masked
	c.RequestStart("exec", req)
	c.VariantEnd("exec", "v1", req, time.Millisecond, nil)
	c.VariantEnd("exec", "v2", req, time.Millisecond, errors.New("boom"))
	c.VariantEnd("exec", "v3", req, time.Millisecond, nil)
	c.Adjudicated("exec", req, true, true)
	c.RequestEnd("exec", req, time.Millisecond, OutcomeMasked)
	req = NextRequestID() // one execution, failed
	c.RequestStart("exec", req)
	c.VariantEnd("exec", "v1", req, time.Millisecond, errors.New("boom"))
	c.Adjudicated("exec", req, false, false)
	c.RequestEnd("exec", req, time.Millisecond, OutcomeFailed)

	s := c.Executor("exec")
	if s.Requests != 2 || s.FailuresDetected != 1 || s.FailuresMasked != 1 || s.Failures != 1 {
		t.Errorf("row = %+v", s)
	}
	if got := s.ExecutionsPerRequest(); got != 2 {
		t.Errorf("ExecutionsPerRequest = %f, want 2", got)
	}
	if got := s.Reliability(); got != 0.5 {
		t.Errorf("Reliability = %f, want 0.5", got)
	}
}

// TestExecutorSnapshotIdle pins the cost model of an executor that has
// served nothing: zero execution cost, and fully reliable rather than
// broken (no observed requests means no observed failures).
func TestExecutorSnapshotIdle(t *testing.T) {
	s := NewCollector().Executor("idle")
	if s.Executor != "idle" || s.Requests != 0 {
		t.Errorf("row = %+v", s)
	}
	if got := s.ExecutionsPerRequest(); got != 0 {
		t.Errorf("ExecutionsPerRequest = %f, want 0", got)
	}
	if got := s.Reliability(); got != 1 {
		t.Errorf("Reliability = %f, want 1", got)
	}
}

// TestCollectorCountsFromAdjudication pins how a row derives the cost
// model's counts from the callbacks: a request on start, one execution
// per variant end, and detected, masked and failed from the
// adjudication decision.
func TestCollectorCountsFromAdjudication(t *testing.T) {
	c := NewCollector()
	observeOneRequest(c, "exec") // accepted with a detected failure: masked

	req := NextRequestID() // failed request
	c.RequestStart("exec", req)
	c.VariantEnd("exec", "v1", req, time.Millisecond, errors.New("boom"))
	c.Adjudicated("exec", req, false, true)
	c.RequestEnd("exec", req, time.Millisecond, OutcomeFailed)

	req = NextRequestID() // clean request
	c.RequestStart("exec", req)
	c.VariantEnd("exec", "v1", req, time.Millisecond, nil)
	c.Adjudicated("exec", req, true, false)
	c.RequestEnd("exec", req, time.Millisecond, OutcomeSuccess)

	s := c.Executor("exec")
	if s.Requests != 3 || s.Executions() != 4 || s.FailuresDetected != 2 ||
		s.FailuresMasked != 1 || s.Failures != 1 {
		t.Errorf("row = %+v (executions %d)", s, s.Executions())
	}
}

// TestExecutorSnapshotConcurrent checks that a row shared by concurrent
// requests loses no request and no execution.
func TestExecutorSnapshotConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := NextRequestID()
				c.RequestStart("exec", req)
				c.VariantEnd("exec", "v1", req, time.Microsecond, nil)
				c.VariantEnd("exec", "v2", req, time.Microsecond, nil)
				c.RequestEnd("exec", req, time.Microsecond, OutcomeSuccess)
			}
		}()
	}
	wg.Wait()
	s := c.Executor("exec")
	if s.Requests != workers*each || s.Executions() != 2*workers*each {
		t.Errorf("lost updates: requests %d, executions %d", s.Requests, s.Executions())
	}
	if got := s.ExecutionsPerRequest(); got != 2 {
		t.Errorf("ExecutionsPerRequest = %f, want 2", got)
	}
}

func TestCollectorLatencyLookup(t *testing.T) {
	c := NewCollector()
	if c.ExecutorLatency("missing") != nil || c.VariantLatency("missing", "v") != nil {
		t.Error("lookups on empty collector should be nil")
	}
	req := NextRequestID()
	c.RequestStart("e", req)
	c.VariantStart("e", "v", req)
	c.VariantEnd("e", "v", req, time.Millisecond, nil)
	c.RequestEnd("e", req, time.Millisecond, OutcomeSuccess)
	if h := c.ExecutorLatency("e"); h == nil || h.Count() != 1 {
		t.Error("executor latency histogram missing")
	}
	if h := c.VariantLatency("e", "v"); h == nil || h.Count() != 1 {
		t.Error("variant latency histogram missing")
	}
	if c.VariantLatency("e", "other") != nil {
		t.Error("unknown variant should be nil")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const workers, each = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exec := []string{"a", "b"}[w%2]
			for i := 0; i < each; i++ {
				req := NextRequestID()
				c.RequestStart(exec, req)
				c.VariantStart(exec, "v", req)
				c.VariantEnd(exec, "v", req, time.Microsecond, nil)
				c.RequestEnd(exec, req, time.Microsecond, OutcomeSuccess)
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("executors = %d, want 2", len(snap))
	}
	total := snap[0].Requests + snap[1].Requests
	if total != workers*each {
		t.Errorf("requests = %d, want %d", total, workers*each)
	}
}

func TestTraceRecorderRing(t *testing.T) {
	tr := NewTraceRecorder(3)
	for i := 0; i < 5; i++ {
		req := NextRequestID()
		tr.RequestStart("exec", req)
		tr.VariantStart("exec", "v", req)
		tr.VariantEnd("exec", "v", req, time.Millisecond, nil)
		tr.Adjudicated("exec", req, true, false)
		tr.RequestEnd("exec", req, 2*time.Millisecond, OutcomeSuccess)
	}
	if tr.Total() != 5 {
		t.Errorf("Total = %d, want 5", tr.Total())
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring keeps %d traces, want 3", len(snap))
	}
	// Most recent first: IDs strictly decreasing.
	for i := 1; i < len(snap); i++ {
		if snap[i].ID >= snap[i-1].ID {
			t.Errorf("traces not newest-first: %d then %d", snap[i-1].ID, snap[i].ID)
		}
	}
	got := snap[0]
	if got.Executor != "exec" || !got.Accepted || got.FailureDetected ||
		got.Outcome != "success" || got.Latency != 2*time.Millisecond {
		t.Errorf("trace = %+v", got)
	}
	if len(got.Variants) != 1 || got.Variants[0].Variant != "v" {
		t.Errorf("spans = %+v", got.Variants)
	}
}

func TestTraceRecorderEventsAndErrors(t *testing.T) {
	tr := NewTraceRecorder(2)
	req := NextRequestID()
	tr.RequestStart("exec", req)
	tr.VariantEnd("exec", "v1", req, time.Millisecond, errors.New("kaput"))
	tr.RetryAttempt("exec", "v2", req, 2)
	tr.Rollback("exec", req)
	tr.ComponentDisabled("exec", "v1", req)
	tr.Adjudicated("exec", req, false, true)
	tr.RequestEnd("exec", req, time.Millisecond, OutcomeFailed)

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("traces = %d", len(snap))
	}
	got := snap[0]
	if got.Accepted || !got.FailureDetected || got.Outcome != "failed" {
		t.Errorf("trace = %+v", got)
	}
	if len(got.Variants) != 1 || got.Variants[0].Err != "kaput" {
		t.Errorf("spans = %+v", got.Variants)
	}
	if len(got.Events) != 3 ||
		got.Events[0].Kind != "retry" || got.Events[1].Kind != "rollback" ||
		got.Events[2].Kind != "component-disabled" {
		t.Errorf("events = %+v", got.Events)
	}
}

func TestTraceRecorderIgnoresUnknownRequest(t *testing.T) {
	tr := NewTraceRecorder(2)
	// Events for a request that never started must be dropped, not panic.
	tr.VariantEnd("exec", "v", 999999, time.Millisecond, nil)
	tr.Adjudicated("exec", 999999, true, false)
	tr.RequestEnd("exec", 999999, time.Millisecond, OutcomeSuccess)
	if tr.Total() != 0 || len(tr.Snapshot()) != 0 {
		t.Error("unknown request leaked into the ring")
	}
}

func TestTraceRecorderWraparoundConcurrent(t *testing.T) {
	// Many writers overflow a tiny ring while readers snapshot: the ring
	// must keep exactly its capacity of complete, distinct traces and
	// count every completion (run with -race to check the locking).
	const (
		capacity = 4
		writers  = 8
		each     = 200
	)
	tr := NewTraceRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exec := []string{"a", "b"}[w%2]
			for i := 0; i < each; i++ {
				req := NextRequestID()
				tr.RequestStart(exec, req)
				tr.VariantStart(exec, "v", req)
				tr.VariantEnd(exec, "v", req, time.Microsecond, nil)
				tr.RequestEnd(exec, req, time.Microsecond, OutcomeSuccess)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		snap := tr.Snapshot()
		if len(snap) > capacity {
			t.Fatalf("snapshot holds %d traces, capacity %d", len(snap), capacity)
		}
		for _, trace := range snap {
			if trace.ID == 0 || trace.Outcome != "success" || len(trace.Variants) != 1 {
				t.Fatalf("torn trace in snapshot: %+v", trace)
			}
		}
	}
	if got := tr.Total(); got != writers*each {
		t.Errorf("Total = %d, want %d", got, writers*each)
	}
	snap := tr.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("final snapshot holds %d traces, want %d", len(snap), capacity)
	}
	seen := map[uint64]bool{}
	for _, trace := range snap {
		if seen[trace.ID] {
			t.Errorf("duplicate trace %d after wraparound", trace.ID)
		}
		seen[trace.ID] = true
	}
}
