package rejuv

import (
	"context"
	"errors"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

func identity() core.Variant[int, int] {
	return core.NewVariant("svc", func(_ context.Context, x int) (int, error) {
		return x, nil
	})
}

func steepAging() faultmodel.AgingFault {
	// Hazard 0 when fresh, ~1 beyond age 50.
	return faultmodel.AgingFault{ID: 1, HazardAtScale: 1, Scale: 50, Shape: 4}
}

func TestPeriodicPolicy(t *testing.T) {
	p := PeriodicPolicy{Every: 10}
	env := faultmodel.DefaultEnv()
	if p.ShouldRejuvenate(env) {
		t.Error("fresh process should not rejuvenate")
	}
	env.Age = 10
	if !p.ShouldRejuvenate(env) {
		t.Error("aged process should rejuvenate")
	}
	if (PeriodicPolicy{Every: 0}).ShouldRejuvenate(env) {
		t.Error("Every=0 disables rejuvenation")
	}
	if p.Name() == "" {
		t.Error("empty policy name")
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy{MaxFragmentation: 0.5, MaxLeakedBytes: 1000}
	env := faultmodel.DefaultEnv()
	if p.ShouldRejuvenate(env) {
		t.Error("fresh process")
	}
	env.Fragmentation = 0.6
	if !p.ShouldRejuvenate(env) {
		t.Error("fragmentation over threshold")
	}
	env.Fragmentation = 0
	env.LeakedBytes = 2000
	if !p.ShouldRejuvenate(env) {
		t.Error("leak over threshold")
	}
	if (ThresholdPolicy{}).ShouldRejuvenate(env) {
		t.Error("zero thresholds disable checks")
	}
}

func TestNeverPolicy(t *testing.T) {
	env := faultmodel.DefaultEnv()
	env.Age = 1 << 20
	if (NeverPolicy{}).ShouldRejuvenate(env) {
		t.Error("NeverPolicy rejuvenated")
	}
	if (NeverPolicy{}).Name() != "never" {
		t.Error("name")
	}
}

func TestRejuvenatorPreventsAgingFailures(t *testing.T) {
	serve := func(policy Policy, seed uint64) (failures int) {
		r, err := NewRejuvenator(identity(), steepAging(), policy, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := r.Execute(context.Background(), i); err != nil {
				failures++
			}
		}
		return failures
	}
	withRejuv := serve(PeriodicPolicy{Every: 20}, 1)
	withoutRejuv := serve(NeverPolicy{}, 1)
	if withRejuv >= withoutRejuv {
		t.Errorf("rejuvenation did not reduce failures: with=%d without=%d", withRejuv, withoutRejuv)
	}
	if withRejuv > 5 {
		t.Errorf("frequent rejuvenation should almost eliminate aging failures, got %d", withRejuv)
	}
}

func TestRejuvenatorCountsRejuvenations(t *testing.T) {
	r, err := NewRejuvenator(identity(), steepAging(), PeriodicPolicy{Every: 10}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, _ = r.Execute(context.Background(), i)
	}
	if got := r.Rejuvenations(); got < 8 || got > 10 {
		t.Errorf("rejuvenations = %d, want ~9-10 for period 10 over 100 requests", got)
	}
	if r.Env().Age > 10 {
		t.Errorf("age = %d, should stay below the period", r.Env().Age)
	}
}

func TestRejuvenatorMetrics(t *testing.T) {
	c := obs.NewCollector()
	r, err := NewRejuvenator(identity(), faultmodel.AgingFault{}, NeverPolicy{}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r.SetObserver(c)
	if _, err := r.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if s := c.Executor("rejuvenator"); s.Requests != 1 || s.Failures != 0 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestRejuvenatorConstructorValidation(t *testing.T) {
	if _, err := NewRejuvenator[int, int](nil, steepAging(), NeverPolicy{}, xrand.New(1)); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("nil variant: %v", err)
	}
	if _, err := NewRejuvenator(identity(), steepAging(), nil, xrand.New(1)); err == nil {
		t.Error("nil policy")
	}
	if _, err := NewRejuvenator(identity(), steepAging(), NeverPolicy{}, nil); err == nil {
		t.Error("nil rng")
	}
}

func TestSimulateCompletionNoFaults(t *testing.T) {
	cfg := CompletionConfig{
		Work:               100,
		CheckpointInterval: 10,
		CheckpointCost:     1,
		Fault:              faultmodel.AgingFault{}, // zero hazard
	}
	got, err := SimulateCompletion(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 100 work units + 10 checkpoints.
	if got != 110 {
		t.Errorf("completion = %f, want 110", got)
	}
}

func TestSimulateCompletionRejuvenationCostCounted(t *testing.T) {
	cfg := CompletionConfig{
		Work:               100,
		CheckpointInterval: 10,
		CheckpointCost:     1,
		RejuvenateEveryN:   2,
		RejuvenationCost:   5,
		Fault:              faultmodel.AgingFault{},
	}
	got, err := SimulateCompletion(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 100 units + 10 checkpoints + 4 rejuvenations (after ckps 2,4,6,8;
	// none after the final checkpoint because the work is complete).
	if got != 130 {
		t.Errorf("completion = %f, want 130", got)
	}
}

func TestSimulateCompletionAlwaysTerminates(t *testing.T) {
	// Even with aggressive hazard, failure recovery resets the age, so
	// the run terminates (the process makes progress while young).
	cfg := CompletionConfig{
		Work:               200,
		CheckpointInterval: 5,
		CheckpointCost:     0.5,
		RecoveryCost:       10,
		Fault:              faultmodel.AgingFault{ID: 1, HazardAtScale: 0.8, Scale: 30, Shape: 3},
	}
	got, err := SimulateCompletion(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if got < 200 {
		t.Errorf("completion %f cannot be below the raw work", got)
	}
}

func TestCompletionUCurve(t *testing.T) {
	// The headline Garg et al. result: completion time as a function of
	// the rejuvenation period is U-shaped — an interior rejuvenation
	// frequency beats both extremes.
	base := CompletionConfig{
		Work:               2000,
		CheckpointInterval: 20,
		CheckpointCost:     1,
		RejuvenationCost:   25,
		RecoveryCost:       200,
		Fault:              faultmodel.AgingFault{ID: 1, HazardAtScale: 0.02, Scale: 200, Shape: 4},
	}
	mean := func(everyN int) float64 {
		cfg := base
		cfg.RejuvenateEveryN = everyN
		m, err := MeanCompletion(cfg, 60, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tooOften := mean(1) // rejuvenate after every checkpoint
	moderate := mean(3) // interior point
	never := mean(0)    // no rejuvenation: failures dominate
	if !(moderate < never) {
		t.Errorf("moderate rejuvenation (%f) should beat none (%f)", moderate, never)
	}
	if !(moderate < tooOften) {
		t.Errorf("moderate rejuvenation (%f) should beat over-rejuvenation (%f)", moderate, tooOften)
	}
}

func TestCompletionConfigValidation(t *testing.T) {
	good := CompletionConfig{Work: 10, CheckpointInterval: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CompletionConfig{
		{Work: 0, CheckpointInterval: 1},
		{Work: 10, CheckpointInterval: 0},
		{Work: 10, CheckpointInterval: 1, CheckpointCost: -1},
		{Work: 10, CheckpointInterval: 1, RejuvenateEveryN: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := SimulateCompletion(bad[0], xrand.New(1)); err == nil {
		t.Error("SimulateCompletion accepted invalid config")
	}
	if _, err := SimulateCompletion(good, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := MeanCompletion(good, 0, xrand.New(1)); err == nil {
		t.Error("zero trials accepted")
	}
}
