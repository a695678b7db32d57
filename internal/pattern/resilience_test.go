package pattern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/resilience"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// snapshotOf returns the collector snapshot of one executor.
func snapshotOf(t *testing.T, c *obs.Collector, executor string) obs.ExecutorSnapshot {
	t.Helper()
	for _, s := range c.Snapshot() {
		if s.Executor == executor {
			return s
		}
	}
	t.Fatalf("no snapshot for executor %q", executor)
	return obs.ExecutorSnapshot{}
}

// TestNoPolicyExecutorsAllocateNothingExtra pins the zero-overhead
// guarantee of the resilience layer: executors with no policies
// configured keep the legacy fast path — no allocation per Execute for
// the sequential executors (the admission fast path, breaker skip,
// fallback skip and panic containment must all be free), and exactly
// the same count as an executor carrying explicit zero-value policy
// options.
func TestNoPolicyExecutorsAllocateNothingExtra(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	ctx := context.Background()

	single, err := NewSingle(benchVariants(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	singleZero, err := NewSingle(benchVariants(1)[0],
		WithDeadline(resilience.DeadlinePolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewSequentialAlternatives(benchVariants(3),
		func(int, int) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}

	base := testing.AllocsPerRun(200, func() { single.Execute(ctx, 1) })
	if base > 0 {
		t.Errorf("Single with no policies: %v allocs/request, want 0", base)
	}
	zero := testing.AllocsPerRun(200, func() { singleZero.Execute(ctx, 1) })
	if zero != base {
		t.Errorf("Single with zero-value deadline policy: %v allocs, baseline %v", zero, base)
	}
	saAllocs := testing.AllocsPerRun(200, func() { sa.Execute(ctx, 1) })
	if saAllocs > 0 {
		t.Errorf("SequentialAlternatives with no policies: %v allocs/request, want 0", saAllocs)
	}
}

// TestParallelEvaluationAllocBudget pins what a Figure 1a vote allocates
// per request: the batch and one goroutine launch per variant beyond
// the first (the majority vote tallies on the stack), both unobserved
// and under the benchmark's nvp_local_faulty stack (breakers, bulkhead,
// a request and variant deadline, a collector) with a caller context
// that has no Done, whose lazy request deadline lives in the batch. A
// regression back to per-variant contexts, per-variant panic wrappers,
// a per-request admission closure or a deadline of its own fails it.
func TestParallelEvaluationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	ctx := context.Background()
	measure := func(opts ...Option) float64 {
		pe, err := NewParallelEvaluation(benchVariants(3), vote.Majority(core.EqualOf[int]()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		pe.Execute(ctx, 1) // warm the collector's per-variant state
		return testing.AllocsPerRun(200, func() {
			if _, err := pe.Execute(ctx, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := measure(); got > unobservedVoteAllocs {
		t.Errorf("unobserved n=3 vote: %v allocs/request, want <= %d", got, unobservedVoteAllocs)
	}
	stack := measure(
		WithBreaker(resilience.NewBreakers(resilience.BreakerConfig{ConsecutiveFailures: 5, OpenFor: time.Second})),
		WithBulkhead(resilience.NewBulkhead(resilience.BulkheadConfig{MaxConcurrent: 8, MaxWaiting: 8})),
		WithDeadline(resilience.DeadlinePolicy{Request: 5 * time.Second, Variant: 5 * time.Second}),
		WithObserver(obs.NewCollector()))
	if stack > policyVoteAllocs {
		t.Errorf("n=3 vote under the nvp_local_faulty stack: %v allocs/request, want <= %d", stack, policyVoteAllocs)
	}
}

// The measured budgets of TestParallelEvaluationAllocBudget (policies
// 4 while the request deadline was an object of its own; 4 and 5 while
// the vote allocated its tally; 12 and 26 before the first attempt ran
// on the caller's goroutine).
const (
	unobservedVoteAllocs = 3
	policyVoteAllocs     = 3
)

func TestSequentialBreakerStopsHammeringFailingVariant(t *testing.T) {
	var primaryRuns atomic.Int64
	primary := core.NewVariant("primary", func(_ context.Context, _ int) (int, error) {
		primaryRuns.Add(1)
		return 0, errors.New("bohrbug")
	})
	alternate := core.NewVariant("alternate", func(_ context.Context, x int) (int, error) {
		return x, nil
	})
	breakers := resilience.NewBreakers(resilience.BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             time.Hour,
	})
	collector := obs.NewCollector()
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{primary, alternate},
		func(_, _ int) error { return nil }, nil,
		WithObserver(collector), WithBreaker(breakers))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := sa.Execute(context.Background(), i)
		if err != nil || v != i {
			t.Fatalf("request %d: (%d, %v), want (%d, nil)", i, v, err, i)
		}
	}
	if got := primaryRuns.Load(); got != 2 {
		t.Errorf("primary executed %d times, want 2 (breaker opens after 2 failures)", got)
	}
	if got := breakers.State("primary"); got != obs.BreakerOpen {
		t.Errorf("primary breaker state = %v, want open", got)
	}
	if got := snapshotOf(t, collector, "sequential-alternatives").BreakerOpens; got != 1 {
		t.Errorf("snapshot BreakerOpens = %d, want 1", got)
	}
}

func TestParallelSelectionBreakerSkipIsNotDisablement(t *testing.T) {
	var v1Runs atomic.Int64
	v1 := core.NewVariant("v1", func(_ context.Context, x int) (int, error) {
		v1Runs.Add(1)
		return x, nil
	})
	v2 := core.NewVariant("v2", func(_ context.Context, x int) (int, error) {
		return x + 1000, nil
	})
	breakers := resilience.NewBreakers(resilience.BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             time.Hour,
	})
	// Trip v1's breaker out of band: the executor must now skip v1 for
	// the request without disabling the component.
	b := breakers.For("v1")
	tok, err := b.Allow()
	if err != nil {
		t.Fatal(err)
	}
	b.Record(tok, errors.New("external failure evidence"))

	accept := func(_, _ int) error { return nil }
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{v1, v2},
		[]core.AcceptanceTest[int, int]{accept, accept},
		WithBreaker(breakers))
	if err != nil {
		t.Fatal(err)
	}
	v, err := ps.Execute(context.Background(), 1)
	if err != nil || v != 1001 {
		t.Fatalf("Execute = (%d, %v), want (1001, nil) from v2", v, err)
	}
	if got := v1Runs.Load(); got != 0 {
		t.Errorf("v1 executed %d times through an open breaker", got)
	}
	if got := ps.Disabled(); len(got) != 0 {
		t.Errorf("breaker rejection disabled components %v; skips must be per-request", got)
	}
}

func TestSingleRetryPolicyMasksTransientFailure(t *testing.T) {
	var calls atomic.Int64
	flaky := core.NewVariant("flaky", func(_ context.Context, x int) (int, error) {
		if calls.Add(1) < 3 {
			return 0, errors.New("transient")
		}
		return x, nil
	})
	collector := obs.NewCollector()
	s, err := NewSingle(flaky,
		WithObserver(collector),
		WithRetryPolicy(resilience.RetryPolicy{MaxAttempts: 3}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Execute(context.Background(), 7)
	if err != nil || v != 7 {
		t.Fatalf("Execute = (%d, %v), want (7, nil)", v, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("variant ran %d times, want 3", got)
	}
	snap := snapshotOf(t, collector, "single")
	if snap.FailuresMasked != 1 || snap.Retries != 2 {
		t.Errorf("snapshot masked=%d retries=%d, want masked=1 retries=2",
			snap.FailuresMasked, snap.Retries)
	}
}

func TestSingleRetryBudgetExhaustion(t *testing.T) {
	var calls atomic.Int64
	failing := core.NewVariant("failing", func(_ context.Context, _ int) (int, error) {
		calls.Add(1)
		return 0, errors.New("persistent")
	})
	s, err := NewSingle(failing, WithRetryPolicy(resilience.RetryPolicy{
		MaxAttempts: 5,
		Budget:      resilience.NewRetryBudget(1, 0.001),
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Execute(context.Background(), 1)
	if !errors.Is(err, resilience.ErrRetryBudgetExhausted) {
		t.Fatalf("Execute = %v, want ErrRetryBudgetExhausted", err)
	}
	// The budget held one token: the primary attempt plus one retry.
	if got := calls.Load(); got != 2 {
		t.Errorf("variant ran %d times, want 2", got)
	}
}

func TestSequentialRetryBudgetStopsAlternates(t *testing.T) {
	mk := func(name string, runs *atomic.Int64) core.Variant[int, int] {
		return core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
			runs.Add(1)
			return 0, errors.New(name + " failed")
		})
	}
	var r1, r2, r3 atomic.Int64
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{mk("a1", &r1), mk("a2", &r2), mk("a3", &r3)},
		func(_, _ int) error { return nil }, nil,
		WithRetryPolicy(resilience.RetryPolicy{
			Budget: resilience.NewRetryBudget(1, 0.001),
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sa.Execute(context.Background(), 1)
	if !errors.Is(err, resilience.ErrRetryBudgetExhausted) {
		t.Fatalf("Execute = %v, want ErrRetryBudgetExhausted", err)
	}
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("Execute = %v, want ErrAllVariantsFailed preserved", err)
	}
	if r1.Load() != 1 || r2.Load() != 1 || r3.Load() != 0 {
		t.Errorf("runs = %d/%d/%d, want 1/1/0 (third alternate denied by budget)",
			r1.Load(), r2.Load(), r3.Load())
	}
}

func TestSequentialAttemptCapLimitsAlternates(t *testing.T) {
	var r1, r2 atomic.Int64
	v1 := core.NewVariant("a1", func(_ context.Context, _ int) (int, error) {
		r1.Add(1)
		return 0, errors.New("a1 failed")
	})
	v2 := core.NewVariant("a2", func(_ context.Context, x int) (int, error) {
		r2.Add(1)
		return x, nil
	})
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{v1, v2},
		func(_, _ int) error { return nil }, nil,
		WithRetryPolicy(resilience.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sa.Execute(context.Background(), 1)
	if err == nil {
		t.Fatal("Execute succeeded; attempt cap should have stopped before a2")
	}
	if r1.Load() != 1 || r2.Load() != 0 {
		t.Errorf("runs = %d/%d, want 1/0", r1.Load(), r2.Load())
	}
}

// TestRetryAttemptsFixedByRetries pins NewRetry's attempt count at
// retries+1 whatever the policy's MaxAttempts says, with the last
// attempt's error returned unwrapped.
func TestRetryAttemptsFixedByRetries(t *testing.T) {
	for _, maxAttempts := range []int{0, 1, 10} {
		var calls atomic.Int64
		failing := core.NewVariant("failing", func(_ context.Context, _ int) (int, error) {
			return 0, fmt.Errorf("attempt %d failed", calls.Add(1))
		})
		collector := obs.NewCollector()
		r, err := NewRetry(failing, 2,
			WithObserver(collector),
			WithRetryPolicy(resilience.RetryPolicy{MaxAttempts: maxAttempts}))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Execute(context.Background(), 1)
		if err == nil || err.Error() != "attempt 3 failed" || errors.Is(err, core.ErrAllVariantsFailed) {
			t.Errorf("MaxAttempts %d: Execute = %v, want the third attempt's own error", maxAttempts, err)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("MaxAttempts %d: variant ran %d times, want 3", maxAttempts, got)
		}
		s := snapshotOf(t, collector, "retry")
		if s.Retries != 2 || s.Executions() != 3 || s.Failures != 1 {
			t.Errorf("MaxAttempts %d: row retries=%d executions=%d failures=%d, want 2/3/1",
				maxAttempts, s.Retries, s.Executions(), s.Failures)
		}
	}
}

func TestFallbackLadderServesLastGood(t *testing.T) {
	var failNow atomic.Bool
	variant := core.NewVariant("v", func(_ context.Context, x int) (int, error) {
		if failNow.Load() {
			return 0, errors.New("down")
		}
		return x * 10, nil
	})
	ladder := resilience.NewLadder[int, int]().CacheLastGood()
	collector := obs.NewCollector()
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{variant},
		func(_, _ int) error { return nil }, nil,
		WithObserver(collector), WithFallback(ladder))
	if err != nil {
		t.Fatal(err)
	}

	// Before any success the ladder is empty: failures surface as
	// ErrDegraded (a ladder was configured but could not serve).
	failNow.Store(true)
	if _, err := sa.Execute(context.Background(), 1); !errors.Is(err, resilience.ErrDegraded) {
		t.Fatalf("Execute with empty ladder = %v, want ErrDegraded", err)
	}

	failNow.Store(false)
	if v, err := sa.Execute(context.Background(), 4); err != nil || v != 40 {
		t.Fatalf("Execute = (%d, %v), want (40, nil)", v, err)
	}

	failNow.Store(true)
	v, err := sa.Execute(context.Background(), 5)
	if err != nil || v != 40 {
		t.Fatalf("Execute after failure = (%d, %v), want last-good (40, nil)", v, err)
	}
	snap := snapshotOf(t, collector, "sequential-alternatives")
	if snap.DegradedServes != 1 {
		t.Errorf("snapshot DegradedServes = %d, want 1", snap.DegradedServes)
	}
	// A ladder serve is an accepted-but-masked request.
	if snap.FailuresMasked != 1 {
		t.Errorf("snapshot FailuresMasked = %d, want 1", snap.FailuresMasked)
	}
}

func TestBulkheadShedsFastWithEvent(t *testing.T) {
	release := make(chan struct{})
	slow := core.NewVariant("slow", func(ctx context.Context, x int) (int, error) {
		select {
		case <-release:
			return x, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	bulkhead := resilience.NewBulkhead(resilience.BulkheadConfig{MaxConcurrent: 1, MaxWaiting: 0})
	collector := obs.NewCollector()
	s, err := NewSingle(slow,
		WithObserver(collector),
		WithBulkhead(bulkhead),
		WithDeadline(resilience.DeadlinePolicy{Request: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := s.Execute(context.Background(), 1)
		first <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for bulkhead.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the bulkhead")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err = s.Execute(context.Background(), 2)
	elapsed := time.Since(start)
	if !errors.Is(err, resilience.ErrShedded) {
		t.Fatalf("overload Execute = %v, want ErrShedded", err)
	}
	// Shedding is the fast path: far below the 1s request deadline.
	if elapsed > 100*time.Millisecond {
		t.Errorf("shed took %v, want fast rejection (deadline/10 = 100ms)", elapsed)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first request = %v, want nil", err)
	}
	if got := snapshotOf(t, collector, "single").Shed; got != 1 {
		t.Errorf("snapshot Shed = %d, want 1", got)
	}
}

func TestDeadlinePolicyUnwedgesHangingVariant(t *testing.T) {
	hang := core.NewVariant("hang", func(ctx context.Context, _ int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	s, err := NewSingle(hang,
		WithDeadline(resilience.DeadlinePolicy{Variant: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// No caller deadline: the policy's variant deadline must still
		// release the hang.
		_, err := s.Execute(context.Background(), 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Execute = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hanging variant wedged the executor despite the deadline policy")
	}
}

func TestExplicitVariantTimeoutWinsOverPolicy(t *testing.T) {
	cfg := newConfig([]Option{
		WithVariantTimeout(5 * time.Millisecond),
		WithDeadline(resilience.DeadlinePolicy{Variant: time.Hour}),
	})
	if got := cfg.deadline.VariantDeadline(cfg.variantTimeout); got != 5*time.Millisecond {
		t.Fatalf("effective variant deadline = %v, want the explicit 5ms", got)
	}
}

// TestDeadlineDuringBackoffKeepsBothCauses pins the error of a request
// whose deadline expires while the retry policy is backing off: it is
// the context's error and still wraps the failure that caused the retry.
func TestDeadlineDuringBackoffKeepsBothCauses(t *testing.T) {
	boom := errors.New("boom")
	failing := func(name string) core.Variant[int, int] {
		return core.NewVariant(name, func(context.Context, int) (int, error) { return 0, boom })
	}
	policy := WithRetryPolicy(resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Hour})
	for _, tc := range []struct {
		name  string
		build func() (core.Executor[int, int], error)
	}{
		{"single", func() (core.Executor[int, int], error) {
			return NewSingle(failing("v"), policy)
		}},
		{"sequential-alternatives", func() (core.Executor[int, int], error) {
			return NewSequentialAlternatives(
				[]core.Variant[int, int]{failing("a1"), failing("a2")},
				func(int, int) error { return nil }, nil, policy)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err = exec.Execute(ctx, 1)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Execute = %v, want DeadlineExceeded", err)
			}
			if !errors.Is(err, boom) {
				t.Errorf("Execute = %v, want the failed attempt's boom kept", err)
			}
		})
	}
}
