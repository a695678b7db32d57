package envperturb

import (
	"context"
	"errors"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// overflowProgram fails unless the environment provides at least 64 bytes
// of allocation padding: an environment-dependent deterministic bug.
func overflowProgram() EnvProgram[int, int] {
	bug := faultmodel.EnvBohrbug{ID: 1, TriggerFraction: 1, MaskedByPadding: 64}
	return func(_ context.Context, env *faultmodel.Env, x int) (int, error) {
		if bug.Activated(faultmodel.Invocation{InputKey: faultmodel.HashInt(x), Env: env}) {
			return 0, errors.New("buffer overflow")
		}
		return x * 2, nil
	}
}

// heisenProgram fails with probability p independently per execution.
func heisenProgram(p float64, rng *xrand.Rand) EnvProgram[int, int] {
	bug := faultmodel.Heisenbug{ID: 2, Prob: p}
	return func(_ context.Context, env *faultmodel.Env, x int) (int, error) {
		if bug.Activated(faultmodel.Invocation{Env: env, Rand: rng}) {
			return 0, errors.New("race condition")
		}
		return x * 2, nil
	}
}

func TestCleanProgramNoPerturbation(t *testing.T) {
	prog := func(_ context.Context, _ *faultmodel.Env, x int) (int, error) { return x + 1, nil }
	e, err := New(prog, faultmodel.DefaultEnv(), DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(context.Background(), 1)
	if err != nil || got != 2 {
		t.Errorf("= (%d, %v)", got, err)
	}
	if e.LastRung() != "" {
		t.Errorf("LastRung = %q, want empty for first-try success", e.LastRung())
	}
}

func TestPaddingRungHealsOverflow(t *testing.T) {
	var m core.Metrics
	e, err := New(overflowProgram(), faultmodel.DefaultEnv(), DefaultLadder(),
		WithMetrics[int, int](&m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(context.Background(), 5)
	if err != nil || got != 10 {
		t.Fatalf("= (%d, %v)", got, err)
	}
	if e.LastRung() != "pad-64" {
		t.Errorf("LastRung = %q, want pad-64", e.LastRung())
	}
	s := m.Snapshot()
	// First try + plain retry + padded retry = 3 executions.
	if s.VariantExecutions != 3 || s.FailuresMasked != 1 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestCheckpointRecoveryCannotHealEnvBohrbug(t *testing.T) {
	// Plain re-execution never changes the environment, so the
	// deterministic overflow fails on every retry.
	e, err := NewCheckpointRecovery(overflowProgram(), faultmodel.DefaultEnv(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), 5); err == nil {
		t.Error("checkpoint-recovery should not mask a deterministic env-dependent bug")
	}
}

func TestCheckpointRecoveryHealsHeisenbug(t *testing.T) {
	rng := xrand.New(3)
	e, err := NewCheckpointRecovery(heisenProgram(0.5, rng), faultmodel.DefaultEnv(), 10)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 200; i++ {
		if _, err := e.Execute(context.Background(), i); err != nil {
			failures++
		}
	}
	// P(11 consecutive activations) = 0.5^11 ≈ 0.05%; over 200 requests
	// we expect ~0.1 residual failures.
	if failures > 3 {
		t.Errorf("checkpoint-recovery left %d/200 Heisenbug failures", failures)
	}
}

func TestRollbackInvokedBeforeEachRetry(t *testing.T) {
	rollbacks := 0
	e, err := NewCheckpointRecovery(overflowProgram(), faultmodel.DefaultEnv(), 3,
		WithRollback[int, int](func(context.Context) error {
			rollbacks++
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = e.Execute(context.Background(), 1)
	if rollbacks != 3 {
		t.Errorf("rollbacks = %d, want 3", rollbacks)
	}
}

func TestRollbackFailureAborts(t *testing.T) {
	boom := errors.New("rollback broken")
	e, err := NewCheckpointRecovery(overflowProgram(), faultmodel.DefaultEnv(), 3,
		WithRollback[int, int](func(context.Context) error { return boom }))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(context.Background(), 1)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want rollback error", err)
	}
}

func TestLadderExhaustion(t *testing.T) {
	always := func(_ context.Context, _ *faultmodel.Env, _ int) (int, error) {
		return 0, errors.New("unconditional bug")
	}
	var m core.Metrics
	e, err := New(always, faultmodel.DefaultEnv(), DefaultLadder(), WithMetrics[int, int](&m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), 1); err == nil {
		t.Error("want error")
	}
	if s := m.Snapshot(); s.Failures != 1 || s.VariantExecutions != 5 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestPanickingProgramIsAFailedAttempt(t *testing.T) {
	// The overflow crashes the program outright until the padding rung
	// masks it: each crash is one failed attempt, not a crashed process.
	bug := faultmodel.EnvBohrbug{ID: 1, TriggerFraction: 1, MaskedByPadding: 64}
	prog := func(_ context.Context, env *faultmodel.Env, x int) (int, error) {
		if bug.Activated(faultmodel.Invocation{InputKey: faultmodel.HashInt(x), Env: env}) {
			panic("buffer overflow")
		}
		return x * 2, nil
	}
	var m core.Metrics
	e, err := New(prog, faultmodel.DefaultEnv(), DefaultLadder(), WithMetrics[int, int](&m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(context.Background(), 5)
	if err != nil || got != 10 {
		t.Fatalf("= (%d, %v)", got, err)
	}
	if e.LastRung() != "pad-64" {
		t.Errorf("LastRung = %q, want pad-64", e.LastRung())
	}
	if s := m.Snapshot(); s.VariantExecutions != 3 || s.FailuresMasked != 1 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestBaseEnvNotMutatedByPerturbations(t *testing.T) {
	base := faultmodel.DefaultEnv()
	e, err := New(overflowProgram(), base, DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if base.AllocPadding != 0 || base.Order != faultmodel.FIFOOrder {
		t.Errorf("base environment mutated: %+v", base)
	}
}

func TestShuffleRungHealsOrderingBug(t *testing.T) {
	bug := faultmodel.EnvBohrbug{ID: 9, TriggerFraction: 1, MaskedByShuffle: true}
	prog := func(_ context.Context, env *faultmodel.Env, x int) (int, error) {
		if bug.Activated(faultmodel.Invocation{InputKey: faultmodel.HashInt(x), Env: env}) {
			return 0, errors.New("deadlock")
		}
		return x, nil
	}
	e, err := New(prog, faultmodel.DefaultEnv(), DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(context.Background(), 7)
	if err != nil || got != 7 {
		t.Fatalf("= (%d, %v)", got, err)
	}
	if e.LastRung() != "shuffle" {
		t.Errorf("LastRung = %q, want shuffle", e.LastRung())
	}
}

func TestConstructorValidation(t *testing.T) {
	prog := overflowProgram()
	if _, err := New[int, int](nil, faultmodel.DefaultEnv(), nil); err == nil {
		t.Error("nil program")
	}
	if _, err := New(prog, nil, nil); err == nil {
		t.Error("nil env")
	}
	if _, err := NewCheckpointRecovery(prog, faultmodel.DefaultEnv(), -1); err == nil {
		t.Error("negative retries")
	}
}

func TestContextCancellationStopsLadder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	prog := func(_ context.Context, _ *faultmodel.Env, _ int) (int, error) {
		calls++
		cancel() // cancel after the first (failing) execution
		return 0, errors.New("fails")
	}
	e, err := New(prog, faultmodel.DefaultEnv(), DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("program ran %d times after cancellation", calls)
	}
}
