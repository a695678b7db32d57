// Package rejuv implements software rejuvenation (Huang, Kintala et al.):
// the preventive use of environment redundancy. Some systems fail due to
// "age" — resource leaks, fragmentation, state corruption accumulating
// over time — and a proper reinitialization of the volatile state avoids
// such failures before they occur. Rejuvenation acts independently of any
// failure detection, so in the taxonomy it is a preventive mechanism with
// no failure-triggered adjudicator.
//
// The package provides:
//
//   - Rejuvenator: a serving wrapper that rejuvenates a simulated aging
//     process according to a policy (periodic or threshold-based);
//   - the checkpoint-assisted completion-time model of Garg, Huang,
//     Kintala and Trivedi ("Minimizing completion time of a program by
//     checkpointing and rejuvenation"): a long-running program
//     checkpoints every c work units and rejuvenates every N checkpoints;
//     the experiment sweeps N to locate the completion-time optimum.
//
// Taxonomy position (paper Table 2): deliberate intention, environment
// redundancy, preventive, Heisenbugs (aging faults).
package rejuv

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// Policy decides when to rejuvenate, given the process environment.
type Policy interface {
	// ShouldRejuvenate reports whether the process should be rejuvenated
	// before serving the next request.
	ShouldRejuvenate(env *faultmodel.Env) bool
	// Name identifies the policy in reports.
	Name() string
}

// PeriodicPolicy rejuvenates every Every served requests.
type PeriodicPolicy struct {
	// Every is the rejuvenation period in requests; values < 1 disable
	// rejuvenation.
	Every int
}

var _ Policy = PeriodicPolicy{}

// Name implements Policy.
func (p PeriodicPolicy) Name() string { return fmt.Sprintf("periodic(%d)", p.Every) }

// ShouldRejuvenate implements Policy.
func (p PeriodicPolicy) ShouldRejuvenate(env *faultmodel.Env) bool {
	return p.Every >= 1 && env.Age >= p.Every
}

// ThresholdPolicy rejuvenates when observed aging indicators exceed
// thresholds, the "condition-based" flavor of rejuvenation.
type ThresholdPolicy struct {
	// MaxFragmentation triggers rejuvenation when Env.Fragmentation
	// reaches this level; <= 0 disables the check.
	MaxFragmentation float64
	// MaxLeakedBytes triggers rejuvenation when Env.LeakedBytes reaches
	// this level; <= 0 disables the check.
	MaxLeakedBytes int
}

var _ Policy = ThresholdPolicy{}

// Name implements Policy.
func (p ThresholdPolicy) Name() string { return "threshold" }

// ShouldRejuvenate implements Policy.
func (p ThresholdPolicy) ShouldRejuvenate(env *faultmodel.Env) bool {
	if p.MaxFragmentation > 0 && env.Fragmentation >= p.MaxFragmentation {
		return true
	}
	if p.MaxLeakedBytes > 0 && env.LeakedBytes >= p.MaxLeakedBytes {
		return true
	}
	return false
}

// HealthPolicy rejuvenates when a live health signal degrades: the
// feedback flavor of rejuvenation, driven by the observation layer's
// diagnosis instead of a fixed period or raw environment thresholds.
// Wire Score to the diagnosis engine watching the same executor, e.g.
//
//	engine := health.New(health.Config{})
//	r, _ := rejuv.NewRejuvenator(v, fault, rejuv.HealthPolicy{
//		Score:    engine.ScoreFunc("rejuvenator"),
//		MinScore: 0.6,
//		MinAge:   10,
//	}, rng)
//	r.SetObserver(engine)
//
// EWMA scores recover gradually after a rejuvenation, so MinAge keeps
// the policy from re-triggering on every request while the score climbs
// back; Env.Age resets on rejuvenation, making it the natural cooldown
// clock.
type HealthPolicy struct {
	// Score returns the current health score in [0, 1] of the process
	// being served (typically health.Engine.ScoreFunc("rejuvenator")).
	// A nil Score never triggers.
	Score func() float64
	// MinScore is the threshold below which rejuvenation triggers.
	MinScore float64
	// MinAge is the minimum number of requests since the last
	// rejuvenation before the policy may trigger again; values < 1 allow
	// back-to-back rejuvenations.
	MinAge int
}

var _ Policy = HealthPolicy{}

// Name implements Policy.
func (p HealthPolicy) Name() string { return fmt.Sprintf("health(<%.2f)", p.MinScore) }

// ShouldRejuvenate implements Policy.
func (p HealthPolicy) ShouldRejuvenate(env *faultmodel.Env) bool {
	if p.Score == nil || env.Age < p.MinAge {
		return false
	}
	return p.Score() < p.MinScore
}

// NeverPolicy never rejuvenates (the baseline).
type NeverPolicy struct{}

var _ Policy = NeverPolicy{}

// Name implements Policy.
func (NeverPolicy) Name() string { return "never" }

// ShouldRejuvenate implements Policy.
func (NeverPolicy) ShouldRejuvenate(*faultmodel.Env) bool { return false }

// Rejuvenator serves requests through an aging process, applying the
// rejuvenation policy before each request. It is the technique executor
// for the taxonomy entry.
type Rejuvenator[I, O any] struct {
	variant core.Variant[I, O]
	policy  Policy
	env     *faultmodel.Env
	fault   faultmodel.AgingFault
	rng     *xrand.Rand

	// FragmentationGrowth is the per-request fragmentation increment.
	FragmentationGrowth float64
	// LeakPerRequest is the per-request resource leak in bytes.
	LeakPerRequest int

	rejuvenations int
	observer      obs.Observer
}

// rejuvenatorName identifies the rejuvenator in observation events.
const rejuvenatorName = "rejuvenator"

var _ core.Executor[int, int] = (*Rejuvenator[int, int])(nil)

// NewRejuvenator wraps variant in an aging process governed by fault and
// rejuvenated according to policy.
func NewRejuvenator[I, O any](variant core.Variant[I, O], fault faultmodel.AgingFault, policy Policy, rng *xrand.Rand) (*Rejuvenator[I, O], error) {
	if variant == nil {
		return nil, core.ErrNoVariants
	}
	if policy == nil {
		return nil, errors.New("rejuv: nil policy")
	}
	if rng == nil {
		return nil, errors.New("rejuv: nil rng")
	}
	return &Rejuvenator[I, O]{
		variant:             variant,
		policy:              policy,
		env:                 faultmodel.DefaultEnv(),
		fault:               fault,
		rng:                 rng,
		FragmentationGrowth: 0.01,
	}, nil
}

// SetObserver attaches an observer. Rejuvenations are reported as
// rollback events (the environment is restored to its initial state);
// aging-fault activations fail the request with the failure detected.
// A plain variant error is not adjudicated — rejuvenation is preventive
// and has no failure detector of its own. Repeated calls combine.
func (r *Rejuvenator[I, O]) SetObserver(o obs.Observer) {
	r.observer = obs.Combine(r.observer, o)
}

// Rejuvenations reports how many times the process was rejuvenated.
func (r *Rejuvenator[I, O]) Rejuvenations() int { return r.rejuvenations }

// Env exposes the process environment for inspection.
func (r *Rejuvenator[I, O]) Env() *faultmodel.Env { return r.env }

// Execute implements core.Executor: it applies the policy, then serves
// the request through the aging process; an activated aging fault fails
// the request.
func (r *Rejuvenator[I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	o := r.observer
	var (
		req   uint64
		start time.Time
	)
	if o != nil {
		req = obs.NextRequestID()
		start = time.Now()
		o.RequestStart(rejuvenatorName, req)
	}
	if r.policy.ShouldRejuvenate(r.env) {
		r.env.Rejuvenate()
		r.rejuvenations++
		if o != nil {
			o.Rollback(rejuvenatorName, req)
		}
	}
	r.env.Tick(r.FragmentationGrowth, r.LeakPerRequest)
	inv := faultmodel.Invocation{Env: r.env, Rand: r.rng}
	if r.fault.Activated(inv) {
		err := fmt.Errorf("aging failure at age %d: %w",
			r.env.Age, &faultmodel.ActivatedError{Fault: r.fault.Name(), Variant: r.variant.Name()})
		if o != nil {
			// The fault preempts the variant, but the invocation still
			// counts as one (failed) execution of the aging process.
			o.VariantStart(rejuvenatorName, r.variant.Name(), req)
			o.VariantEnd(rejuvenatorName, r.variant.Name(), req, 0, err)
			o.Adjudicated(rejuvenatorName, req, false, true)
			o.RequestEnd(rejuvenatorName, req, time.Since(start), obs.OutcomeFailed)
		}
		return zero, err
	}
	var vstart time.Time
	if o != nil {
		o.VariantStart(rejuvenatorName, r.variant.Name(), req)
		vstart = time.Now()
	}
	out, err := r.variant.Execute(ctx, input)
	if o != nil {
		o.VariantEnd(rejuvenatorName, r.variant.Name(), req, time.Since(vstart), err)
		if err == nil {
			o.Adjudicated(rejuvenatorName, req, true, false)
			o.RequestEnd(rejuvenatorName, req, time.Since(start), obs.OutcomeSuccess)
		} else {
			// A plain variant error is not adjudicated: rejuvenation is
			// preventive and brings no failure detector of its own.
			o.RequestEnd(rejuvenatorName, req, time.Since(start), obs.OutcomeFailed)
		}
	}
	return out, err
}

// CompletionConfig parameterizes the Garg et al. completion-time model.
type CompletionConfig struct {
	// Work is the total work in units; each unit costs one time unit.
	Work int
	// CheckpointInterval is the number of work units between checkpoints.
	CheckpointInterval int
	// CheckpointCost is the time cost of taking one checkpoint.
	CheckpointCost float64
	// RejuvenateEveryN rejuvenates after every N checkpoints; 0 disables
	// rejuvenation.
	RejuvenateEveryN int
	// RejuvenationCost is the time cost of one rejuvenation.
	RejuvenationCost float64
	// RecoveryCost is the time cost of recovering from a failure (repair
	// plus restart), on top of the lost work since the last checkpoint.
	RecoveryCost float64
	// Fault is the aging law; its hazard is evaluated per work unit
	// against the age (work units since the last rejuvenation, failure
	// recovery, or start).
	Fault faultmodel.AgingFault
}

// Validate checks the configuration.
func (c CompletionConfig) Validate() error {
	if c.Work < 1 || c.CheckpointInterval < 1 {
		return errors.New("rejuv: work and checkpoint interval must be positive")
	}
	if c.CheckpointCost < 0 || c.RejuvenationCost < 0 || c.RecoveryCost < 0 {
		return errors.New("rejuv: costs must be non-negative")
	}
	if c.RejuvenateEveryN < 0 {
		return errors.New("rejuv: RejuvenateEveryN must be non-negative")
	}
	return nil
}

// SimulateCompletion runs the completion-time model once and returns the
// total time to finish all work units.
//
// The process executes work units sequentially. Every CheckpointInterval
// completed units it pays CheckpointCost and commits progress. After
// every RejuvenateEveryN checkpoints it pays RejuvenationCost and resets
// its age. When the aging fault activates during a unit, the process pays
// RecoveryCost, loses the units completed since the last checkpoint, and
// restarts from the checkpoint with a fresh age (a failure-triggered
// restart also rejuvenates, as in the Garg model).
func SimulateCompletion(cfg CompletionConfig, rng *xrand.Rand) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if rng == nil {
		return 0, errors.New("rejuv: nil rng")
	}
	var (
		clock          float64
		committed      int // work units safely checkpointed
		sinceCkp       int // units done since last checkpoint
		age            int // units since last rejuvenation/restart
		ckpsSinceRejuv int
	)
	for committed+sinceCkp < cfg.Work {
		// Attempt one work unit.
		clock++
		age++
		if rng.Bool(cfg.Fault.Hazard(age)) {
			// Failure: lose uncommitted progress, pay recovery, restart
			// with fresh age.
			clock += cfg.RecoveryCost
			sinceCkp = 0
			age = 0
			ckpsSinceRejuv = 0
			continue
		}
		sinceCkp++
		if sinceCkp < cfg.CheckpointInterval && committed+sinceCkp < cfg.Work {
			continue
		}
		// Checkpoint (also taken at completion to commit the tail).
		clock += cfg.CheckpointCost
		committed += sinceCkp
		sinceCkp = 0
		ckpsSinceRejuv++
		if cfg.RejuvenateEveryN > 0 && ckpsSinceRejuv >= cfg.RejuvenateEveryN && committed < cfg.Work {
			clock += cfg.RejuvenationCost
			age = 0
			ckpsSinceRejuv = 0
		}
	}
	return clock, nil
}

// MeanCompletion estimates the expected completion time over trials runs.
func MeanCompletion(cfg CompletionConfig, trials int, rng *xrand.Rand) (float64, error) {
	if trials < 1 {
		return 0, errors.New("rejuv: trials must be positive")
	}
	var sum float64
	for i := 0; i < trials; i++ {
		t, err := SimulateCompletion(cfg, rng)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum / float64(trials), nil
}
