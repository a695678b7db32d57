package pattern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
)

// recordingObserver captures every observation event for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	starts   int
	ends     int
	outcomes []obs.Outcome
	variants []string
	errs     int
	adjs     []struct{ accepted, detected bool }
	disabled []string
	retries  []int
	rolls    int
	reqs     map[uint64]bool
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{reqs: make(map[uint64]bool)}
}

func (r *recordingObserver) RequestStart(_ string, req uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts++
	r.reqs[req] = true
}

func (r *recordingObserver) RequestEnd(_ string, req uint64, _ time.Duration, o obs.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends++
	r.outcomes = append(r.outcomes, o)
	if !r.reqs[req] {
		r.reqs[0] = true // flag unmatched request IDs via the sentinel
	}
}

func (r *recordingObserver) VariantStart(string, string, uint64) {}

func (r *recordingObserver) VariantEnd(_, variant string, _ uint64, _ time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.variants = append(r.variants, variant)
	if err != nil {
		r.errs++
	}
}

func (r *recordingObserver) Adjudicated(_ string, _ uint64, accepted, detected bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adjs = append(r.adjs, struct{ accepted, detected bool }{accepted, detected})
}

func (r *recordingObserver) ComponentDisabled(_, component string, _ uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disabled = append(r.disabled, component)
}

func (r *recordingObserver) RetryAttempt(_, _ string, _ uint64, attempt int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries = append(r.retries, attempt)
}

func (r *recordingObserver) Rollback(string, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rolls++
}

func obsOK[O any](name string, v O) core.Variant[int, O] {
	return core.NewVariant(name, func(context.Context, int) (O, error) { return v, nil })
}

func obsFail(name string) core.Variant[int, int] {
	return core.NewVariant(name, func(context.Context, int) (int, error) {
		return 0, errors.New(name + " failed")
	})
}

func TestParallelEvaluationObserver(t *testing.T) {
	rec := newRecordingObserver()
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{obsOK("a", 7), obsOK("b", 7), obsFail("c")},
		core.AdjudicatorFunc[int](func(rs []core.Result[int]) (int, error) { return rs[0].Value, nil }),
		WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if rec.starts != 1 || rec.ends != 1 {
		t.Errorf("spans = %d/%d", rec.starts, rec.ends)
	}
	if len(rec.variants) != 3 || rec.errs != 1 {
		t.Errorf("variant events = %v errs = %d", rec.variants, rec.errs)
	}
	if len(rec.adjs) != 1 || !rec.adjs[0].accepted || !rec.adjs[0].detected {
		t.Errorf("adjudication = %+v", rec.adjs)
	}
	if rec.outcomes[0] != obs.OutcomeMasked {
		t.Errorf("outcome = %v, want masked", rec.outcomes[0])
	}
	if rec.reqs[0] {
		t.Error("request IDs did not match across callbacks")
	}
}

func TestParallelEvaluationExecuteAllUnobserved(t *testing.T) {
	rec := newRecordingObserver()
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{obsOK("a", 1)},
		core.AdjudicatorFunc[int](func(rs []core.Result[int]) (int, error) { return rs[0].Value, nil }),
		WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	// Direct raw executions carry no adjudication, so they are not
	// observed (matching the historical WithMetrics behavior).
	pe.ExecuteAll(context.Background(), 1)
	if rec.starts != 0 || len(rec.variants) != 0 {
		t.Errorf("ExecuteAll emitted events: starts=%d variants=%v", rec.starts, rec.variants)
	}
}

func TestParallelSelectionObserverDisables(t *testing.T) {
	rec := newRecordingObserver()
	reject := func(_ int, v int) error {
		if v == 0 {
			return core.ErrNotAccepted
		}
		return nil
	}
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{obsOK("bad", 0), obsOK("good", 1)},
		[]core.AcceptanceTest[int, int]{reject, reject},
		WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ps.Execute(context.Background(), 1); err != nil || v != 1 {
		t.Fatalf("Execute = %d, %v", v, err)
	}
	if len(rec.disabled) != 1 || rec.disabled[0] != "bad" {
		t.Errorf("disabled = %v", rec.disabled)
	}
	if rec.outcomes[0] != obs.OutcomeMasked {
		t.Errorf("outcome = %v, want masked", rec.outcomes[0])
	}

	// Second request: only "good" is live.
	if _, err := ps.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.variants) != 3 {
		t.Errorf("variant executions = %d, want 3 (2 then 1)", len(rec.variants))
	}
	if rec.outcomes[1] != obs.OutcomeSuccess {
		t.Errorf("second outcome = %v", rec.outcomes[1])
	}
}

func TestParallelSelectionObserverAllDisabled(t *testing.T) {
	rec := newRecordingObserver()
	rejectAll := func(int, int) error { return core.ErrNotAccepted }
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{obsOK("v", 0)},
		[]core.AcceptanceTest[int, int]{rejectAll},
		WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = ps.Execute(context.Background(), 1) // disables "v"
	_, err = ps.Execute(context.Background(), 1)
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("want all-variants-failed, got %v", err)
	}
	if rec.starts != 2 || rec.ends != 2 {
		t.Errorf("spans = %d/%d", rec.starts, rec.ends)
	}
	// The all-disabled request ran no variants and detected nothing new.
	if got := rec.adjs[1]; got.accepted || got.detected {
		t.Errorf("all-disabled adjudication = %+v", got)
	}
	if rec.outcomes[1] != obs.OutcomeFailed {
		t.Errorf("all-disabled outcome = %v", rec.outcomes[1])
	}
}

func TestSequentialAlternativesObserverRetryAndRollback(t *testing.T) {
	rec := newRecordingObserver()
	rollbacks := 0
	seq, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{obsFail("primary"), obsOK("alternate", 9)},
		func(int, int) error { return nil },
		func(context.Context) error { rollbacks++; return nil },
		WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := seq.Execute(context.Background(), 1); err != nil || v != 9 {
		t.Fatalf("Execute = %d, %v", v, err)
	}
	if rec.rolls != 1 || rollbacks != 1 {
		t.Errorf("rollback events = %d, actual rollbacks = %d", rec.rolls, rollbacks)
	}
	if len(rec.retries) != 1 || rec.retries[0] != 2 {
		t.Errorf("retries = %v, want [2]", rec.retries)
	}
	if len(rec.variants) != 2 {
		t.Errorf("variant executions = %v", rec.variants)
	}
	if rec.outcomes[0] != obs.OutcomeMasked {
		t.Errorf("outcome = %v, want masked", rec.outcomes[0])
	}
}

func TestSingleObserver(t *testing.T) {
	rec := newRecordingObserver()
	s, err := NewSingle(obsFail("only"), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(context.Background(), 1); err == nil {
		t.Fatal("want failure")
	}
	if rec.outcomes[0] != obs.OutcomeFailed {
		t.Errorf("outcome = %v", rec.outcomes[0])
	}
	if len(rec.adjs) != 1 || rec.adjs[0].accepted || !rec.adjs[0].detected {
		t.Errorf("adjudication = %+v", rec.adjs)
	}
}

// TestWithMetricsViaObserverParity drives each executor through mixed
// success/failure workloads twice — once against the legacy counters
// (WithMetrics, now observer-backed) and conceptually against the
// documented legacy semantics — and asserts the counters are unchanged.
func TestWithMetricsViaObserverParity(t *testing.T) {
	ctx := context.Background()

	t.Run("parallel-evaluation", func(t *testing.T) {
		var m core.Metrics
		pe, err := NewParallelEvaluation(
			[]core.Variant[int, int]{obsOK("a", 1), obsFail("b"), obsOK("c", 1)},
			core.AdjudicatorFunc[int](func(rs []core.Result[int]) (int, error) { return rs[0].Value, nil }),
			WithMetrics(&m))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = pe.Execute(ctx, 1)
		s := m.Snapshot()
		if s.Requests != 1 || s.VariantExecutions != 3 || s.FailuresDetected != 1 ||
			s.FailuresMasked != 1 || s.Failures != 0 {
			t.Errorf("snapshot = %+v", s)
		}
	})

	t.Run("sequential", func(t *testing.T) {
		var m core.Metrics
		seq, err := NewSequentialAlternatives(
			[]core.Variant[int, int]{obsFail("p"), obsOK("a", 1)},
			func(int, int) error { return nil }, nil, WithMetrics(&m))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = seq.Execute(ctx, 1)
		s := m.Snapshot()
		if s.Requests != 1 || s.VariantExecutions != 2 || s.FailuresDetected != 1 ||
			s.FailuresMasked != 1 || s.Failures != 0 {
			t.Errorf("snapshot = %+v", s)
		}
	})

	t.Run("selection-all-disabled", func(t *testing.T) {
		var m core.Metrics
		rejectAll := func(int, int) error { return core.ErrNotAccepted }
		ps, err := NewParallelSelection(
			[]core.Variant[int, int]{obsOK("v", 0)},
			[]core.AcceptanceTest[int, int]{rejectAll}, WithMetrics(&m))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = ps.Execute(ctx, 1) // rejected and disabled
		_, _ = ps.Execute(ctx, 1) // all disabled
		s := m.Snapshot()
		if s.Requests != 2 || s.VariantExecutions != 1 || s.FailuresDetected != 1 ||
			s.Failures != 2 {
			t.Errorf("snapshot = %+v", s)
		}
	})

	t.Run("single", func(t *testing.T) {
		var m core.Metrics
		sg, err := NewSingle(obsFail("only"), WithMetrics(&m))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = sg.Execute(ctx, 1)
		s := m.Snapshot()
		if s.Requests != 1 || s.VariantExecutions != 1 || s.FailuresDetected != 1 ||
			s.Failures != 1 {
			t.Errorf("snapshot = %+v", s)
		}
	})
}

// TestWithMetricsAndObserverCompose checks that legacy metrics and a new
// observer can be attached together and both see the traffic.
func TestWithMetricsAndObserverCompose(t *testing.T) {
	var m core.Metrics
	c := obs.NewCollector()
	sg, err := NewSingle(obsOK("v", 1), WithMetrics(&m), WithObserver(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.Requests != 1 {
		t.Errorf("metrics snapshot = %+v", s)
	}
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Requests != 1 || snap[0].Executor != "single" {
		t.Errorf("collector snapshot = %+v", snap)
	}
}
