package pattern

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
)

func constVariant(name string, v int) core.Variant[int, int] {
	return core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
		return v, nil
	})
}

func errVariant(name string) core.Variant[int, int] {
	return core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
		return 0, fmt.Errorf("variant %s: %w", name, core.ErrNotAccepted)
	})
}

func acceptAll(_ int, _ int) error { return nil }

func acceptEq(want int) core.AcceptanceTest[int, int] {
	return func(_ int, output int) error {
		if output != want {
			return core.ErrNotAccepted
		}
		return nil
	}
}

func TestParallelEvaluationMajority(t *testing.T) {
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{
			constVariant("a", 42), constVariant("b", 42), constVariant("c", 7),
		},
		vote.Majority(core.EqualOf[int]()),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pe.Execute(context.Background(), 0)
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
}

func TestParallelEvaluationRunsAllVariants(t *testing.T) {
	var count atomic.Int32
	mk := func(name string) core.Variant[int, int] {
		return core.NewVariant(name, func(_ context.Context, x int) (int, error) {
			count.Add(1)
			return x, nil
		})
	}
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{mk("a"), mk("b"), mk("c")},
		vote.Majority(core.EqualOf[int]()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 3 {
		t.Errorf("executed %d variants, want 3", count.Load())
	}
}

func TestParallelEvaluationResultOrder(t *testing.T) {
	// Results must be in variant order even when completion order differs.
	slow := core.NewVariant("slow", func(ctx context.Context, x int) (int, error) {
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
		}
		return 1, nil
	})
	fast := constVariant("fast", 2)
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{slow, fast},
		vote.FirstSuccess[int](),
	)
	if err != nil {
		t.Fatal(err)
	}
	results := pe.ExecuteAll(context.Background(), 0)
	if results[0].Variant != "slow" || results[1].Variant != "fast" {
		t.Errorf("results out of variant order: %v, %v", results[0].Variant, results[1].Variant)
	}
}

func TestParallelEvaluationConstructorErrors(t *testing.T) {
	if _, err := NewParallelEvaluation[int, int](nil, vote.FirstSuccess[int]()); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("no variants: err = %v", err)
	}
	if _, err := NewParallelEvaluation([]core.Variant[int, int]{constVariant("a", 1)}, nil); err == nil {
		t.Error("nil adjudicator: want error")
	}
}

func TestParallelEvaluationMetrics(t *testing.T) {
	c := obs.NewCollector()
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{
			constVariant("a", 1), constVariant("b", 1), errVariant("c"),
		},
		vote.Majority(core.EqualOf[int]()),
		WithObserver(c),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	s := c.Executor(nameParallelEvaluation)
	if s.Requests != 1 || s.Executions() != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.FailuresDetected != 1 || s.FailuresMasked != 1 || s.Failures != 0 {
		t.Errorf("failure accounting = %+v", s)
	}
}

func TestParallelEvaluationNoConsensusCountsAsFailure(t *testing.T) {
	c := obs.NewCollector()
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{constVariant("a", 1), constVariant("b", 2)},
		vote.Majority(core.EqualOf[int]()),
		WithObserver(c),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Execute(context.Background(), 0); !errors.Is(err, core.ErrNoConsensus) {
		t.Fatalf("err = %v", err)
	}
	if s := c.Executor(nameParallelEvaluation); s.Failures != 1 {
		t.Errorf("failures = %d, want 1", s.Failures)
	}
}

func TestParallelSelectionPicksAcceptableResult(t *testing.T) {
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{constVariant("bad", 7), constVariant("good", 42)},
		[]core.AcceptanceTest[int, int]{acceptEq(42), acceptEq(42)},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.Execute(context.Background(), 0)
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
	disabled := ps.Disabled()
	if len(disabled) != 1 || disabled[0] != "bad" {
		t.Errorf("disabled = %v, want [bad]", disabled)
	}
}

func TestParallelSelectionDisablesAndRecovers(t *testing.T) {
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{errVariant("a"), constVariant("b", 1)},
		[]core.AcceptanceTest[int, int]{acceptAll, acceptAll},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := ps.Execute(context.Background(), 0)
		if err != nil || got != 1 {
			t.Fatalf("request %d: = (%d, %v)", i, got, err)
		}
	}
	if len(ps.Disabled()) != 1 {
		t.Errorf("disabled = %v", ps.Disabled())
	}
	ps.Reset()
	if len(ps.Disabled()) != 0 {
		t.Error("Reset did not clear disabled set")
	}
}

func TestParallelSelectionAllDisabled(t *testing.T) {
	c := obs.NewCollector()
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{errVariant("a")},
		[]core.AcceptanceTest[int, int]{acceptAll},
		WithObserver(c),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Execute(context.Background(), 0); !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("first: err = %v", err)
	}
	if _, err := ps.Execute(context.Background(), 0); !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("after disable: err = %v", err)
	}
	if s := c.Executor(nameParallelSelection); s.Failures != 2 {
		t.Errorf("failures = %d, want 2", s.Failures)
	}
}

func TestParallelSelectionConstructorErrors(t *testing.T) {
	if _, err := NewParallelSelection[int, int](nil, nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewParallelSelection(
		[]core.Variant[int, int]{constVariant("a", 1)},
		nil,
	); err == nil {
		t.Error("mismatched tests: want error")
	}
}

func TestSequentialAlternativesFallsThrough(t *testing.T) {
	var order []string
	mk := func(name string, v int, fail bool) core.Variant[int, int] {
		return core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
			order = append(order, name)
			if fail {
				return 0, errors.New("failed")
			}
			return v, nil
		})
	}
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{
			mk("primary", 0, true),
			mk("alt1", 5, false),
			mk("alt2", 6, false),
		},
		acceptAll, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sa.Execute(context.Background(), 0)
	if err != nil || got != 5 {
		t.Errorf("= (%d, %v), want (5, nil)", got, err)
	}
	if len(order) != 2 || order[0] != "primary" || order[1] != "alt1" {
		t.Errorf("execution order = %v; alt2 must not run", order)
	}
}

func TestSequentialAlternativesAcceptanceRejection(t *testing.T) {
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{constVariant("a", 7), constVariant("b", 42)},
		acceptEq(42), nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sa.Execute(context.Background(), 0)
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
}

func TestSequentialAlternativesAllFail(t *testing.T) {
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{errVariant("a"), errVariant("b")},
		acceptAll, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sa.Execute(context.Background(), 0)
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("err = %v, want ErrAllVariantsFailed", err)
	}
}

func TestSequentialAlternativesRollback(t *testing.T) {
	rollbacks := 0
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{errVariant("a"), errVariant("b"), constVariant("c", 1)},
		acceptAll,
		func(_ context.Context) error { rollbacks++; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if rollbacks != 2 {
		t.Errorf("rollbacks = %d, want 2 (before each alternate)", rollbacks)
	}
}

func TestSequentialAlternativesRollbackFailureAborts(t *testing.T) {
	wantErr := errors.New("rollback broken")
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{errVariant("a"), constVariant("b", 1)},
		acceptAll,
		func(_ context.Context) error { return wantErr },
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sa.Execute(context.Background(), 0)
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want rollback error", err)
	}
}

func TestSequentialAlternativesContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{constVariant("a", 1)},
		acceptAll, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sa.Execute(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSequentialAlternativesMetrics(t *testing.T) {
	c := obs.NewCollector()
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{errVariant("a"), constVariant("b", 1)},
		acceptAll, nil,
		WithObserver(c),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	s := c.Executor(nameSequentialAlternatives)
	if s.Requests != 1 || s.Executions() != 2 ||
		s.FailuresDetected != 1 || s.FailuresMasked != 1 || s.Failures != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if got := s.ExecutionsPerRequest(); got != 2 {
		t.Errorf("ExecutionsPerRequest = %f", got)
	}
}

func TestSequentialAlternativesConstructorErrors(t *testing.T) {
	if _, err := NewSequentialAlternatives[int, int](nil, acceptAll, nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{constVariant("a", 1)}, nil, nil,
	); err == nil {
		t.Error("nil test: want error")
	}
}

func TestSingleBaseline(t *testing.T) {
	c := obs.NewCollector()
	s, err := NewSingle(constVariant("only", 9), WithObserver(c))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Execute(context.Background(), 0)
	if err != nil || got != 9 {
		t.Errorf("= (%d, %v)", got, err)
	}
	if snap := c.Executor(nameSingle); snap.Requests != 1 || snap.Executions() != 1 {
		t.Errorf("metrics = %+v", snap)
	}
}

func TestSingleFailure(t *testing.T) {
	c := obs.NewCollector()
	s, err := NewSingle(errVariant("only"), WithObserver(c))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(context.Background(), 0); err == nil {
		t.Error("want error")
	}
	if snap := c.Executor(nameSingle); snap.Failures != 1 {
		t.Errorf("failures = %d", snap.Failures)
	}
}

func TestSingleNilVariant(t *testing.T) {
	if _, err := NewSingle[int, int](nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("err = %v", err)
	}
}

func TestVariantTimeout(t *testing.T) {
	hang := core.NewVariant("hang", func(ctx context.Context, _ int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	s, err := NewSingle(hang, WithVariantTimeout(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Execute(context.Background(), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout did not bound the execution")
	}
}

func TestParallelEvaluationHangingVariantBoundedByTimeout(t *testing.T) {
	hang := core.NewVariant("hang", func(ctx context.Context, _ int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{constVariant("a", 1), constVariant("b", 1), hang},
		vote.Majority(core.EqualOf[int]()),
		WithVariantTimeout(5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pe.Execute(context.Background(), 0)
	if err != nil || got != 1 {
		t.Errorf("= (%d, %v): majority should mask the hung variant", got, err)
	}
}

func TestParallelSelectionActingComponentHasPriority(t *testing.T) {
	// Both variants produce acceptable results; the acting component
	// (the first configured) must win even if it finishes last.
	acting := core.NewVariant("acting", func(ctx context.Context, _ int) (int, error) {
		select {
		case <-time.After(5 * time.Millisecond):
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	spare := constVariant("spare", 2)
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{acting, spare},
		[]core.AcceptanceTest[int, int]{acceptAll, acceptAll},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.Execute(context.Background(), 0)
	if err != nil || got != 1 {
		t.Errorf("= (%d, %v), want acting component's result 1", got, err)
	}
	if len(ps.Disabled()) != 0 {
		t.Errorf("nothing should be disabled, got %v", ps.Disabled())
	}
}

func TestParallelSelectionDisablesSlowFailingSpare(t *testing.T) {
	// A failing spare must be disabled even when the acting component
	// succeeds first.
	spareFails := core.NewVariant("spare", func(_ context.Context, _ int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return 0, errors.New("spare failed")
	})
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{constVariant("acting", 1), spareFails},
		[]core.AcceptanceTest[int, int]{acceptAll, acceptAll},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.Execute(context.Background(), 0)
	if err != nil || got != 1 {
		t.Fatalf("= (%d, %v)", got, err)
	}
	if d := ps.Disabled(); len(d) != 1 || d[0] != "spare" {
		t.Errorf("disabled = %v, want [spare]", d)
	}
}

func TestPanickingVariantContainedByExecutors(t *testing.T) {
	crashing := core.NewVariant("crashes", func(_ context.Context, _ int) (int, error) {
		panic("boom")
	})
	// Parallel evaluation: the panic becomes a failed result; the healthy
	// majority still wins.
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{constVariant("a", 1), constVariant("b", 1), crashing},
		vote.Majority(core.EqualOf[int]()),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pe.Execute(context.Background(), 0)
	if err != nil || got != 1 {
		t.Errorf("parallel evaluation = (%d, %v)", got, err)
	}
	results := pe.ExecuteAll(context.Background(), 0)
	if !errors.Is(results[2].Err, core.ErrVariantPanicked) {
		t.Errorf("panicking result err = %v", results[2].Err)
	}
	// Sequential alternatives: the panic falls through to the alternate.
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{crashing, constVariant("alt", 7)},
		acceptAll, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err = sa.Execute(context.Background(), 0)
	if err != nil || got != 7 {
		t.Errorf("sequential = (%d, %v)", got, err)
	}
}

func TestWithLoggerEmitsEvents(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))

	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{constVariant("a", 1), constVariant("b", 1), errVariant("c")},
		vote.Majority(core.EqualOf[int]()),
		WithLogger(logger),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "variant failed") || !strings.Contains(out, "variant=c") {
		t.Errorf("missing variant-failure event:\n%s", out)
	}
	if !strings.Contains(out, "failure masked by redundancy") {
		t.Errorf("missing masked event:\n%s", out)
	}

	buf.Reset()
	sa, err := NewSequentialAlternatives(
		[]core.Variant[int, int]{errVariant("p"), errVariant("q")},
		acceptAll, nil,
		WithLogger(logger),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Execute(context.Background(), 0); err == nil {
		t.Fatal("want failure")
	}
	if !strings.Contains(buf.String(), "redundant execution failed") {
		t.Errorf("missing failure event:\n%s", buf.String())
	}

	buf.Reset()
	ps, err := NewParallelSelection(
		[]core.Variant[int, int]{errVariant("x"), constVariant("y", 2)},
		[]core.AcceptanceTest[int, int]{acceptAll, acceptAll},
		WithLogger(logger),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "failure masked by redundancy") {
		t.Errorf("missing selection masked event:\n%s", buf.String())
	}

	buf.Reset()
	single, err := NewSingle(errVariant("solo"), WithLogger(logger))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Execute(context.Background(), 0); err == nil {
		t.Fatal("want failure")
	}
	if !strings.Contains(buf.String(), "variant=solo") {
		t.Errorf("missing single failure event:\n%s", buf.String())
	}
}

func TestNoLoggerMeansNoEvents(t *testing.T) {
	// Without WithLogger, execution must not panic on nil logger.
	pe, err := NewParallelEvaluation(
		[]core.Variant[int, int]{errVariant("a"), constVariant("b", 1), constVariant("c", 1)},
		vote.Majority(core.EqualOf[int]()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}
