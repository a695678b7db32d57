package faultmodel

// FailSlow models the gray replica: a variant that heartbeats on time
// and answers every call correctly, yet serves it many times slower
// than its peers. This is the timing-failure class of De Florio's
// application-level fault-tolerance taxonomy — invisible to the
// heartbeat detector (pings do not execute the variant), invisible to
// the voter (answers are right), and only observable in the latency
// profile of real requests. The profiles mirror how fail-slow faults
// present in production studies: a constant limp (degraded disk, lost
// CPU cap), progressive degradation (leak-driven slowdown that worsens
// call by call), and intermittent bursts (periodic contention). All
// burst decisions are seeded hash rolls so campaigns replay the exact
// same limp schedule and drivers have ground truth without trusting
// latency measurements.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
)

// SlowProfile selects how a FailSlow replica's latency degrades.
type SlowProfile string

const (
	// SlowConstant limps at the full Factor on every active call.
	SlowConstant SlowProfile = "constant"
	// SlowProgressive ramps linearly from 1× to Factor over RampCalls
	// active calls — the leak-driven slowdown that starts subtle.
	SlowProgressive SlowProfile = "progressive"
	// SlowBursts limps at the full Factor on a seeded BurstProb
	// fraction of active calls and serves the rest at normal speed —
	// intermittent contention that defeats naive threshold alarms.
	SlowBursts SlowProfile = "bursts"
)

// ParseSlowProfile validates a profile name.
func ParseSlowProfile(s string) (SlowProfile, error) {
	switch SlowProfile(s) {
	case SlowConstant, SlowProgressive, SlowBursts:
		return SlowProfile(s), nil
	default:
		return "", fmt.Errorf("faultmodel: unknown slow profile %q (want constant, progressive, or bursts)", s)
	}
}

// defaultSlowFactor backstops FailSlow values whose Factor is left
// zero: 20× is squarely in the gray band — far above noise, far below
// a timeout.
const defaultSlowFactor = 20.0

// ParseFailSlowSpec parses the "profile:factor" form of the faultsim
// gray-fault flag (e.g. "constant:20", "bursts:50"); a bare "profile"
// means the default factor.
func ParseFailSlowSpec(spec string) (SlowProfile, float64, error) {
	name, factorStr, found := strings.Cut(spec, ":")
	profile, err := ParseSlowProfile(name)
	if err != nil {
		return "", 0, err
	}
	factor := defaultSlowFactor
	if found {
		factor, err = strconv.ParseFloat(factorStr, 64)
		if err != nil || math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 1 {
			return "", 0, fmt.Errorf("faultmodel: bad slow factor %q in %q (want a finite multiplier > 1)", factorStr, spec)
		}
	}
	return profile, factor, nil
}

// FailSlow wraps a correct variant as a gray replica. Unlike Injector
// (wrong answers, crashes) and Adversary (strategic lies), a fail-slow
// replica is behaviorally perfect — it only stretches time. The wrapper
// sleeps (Factor−1)×BaseLatency before delegating, so a base that takes
// BaseLatency to serve presents a total service time of
// Factor×BaseLatency while the answer stays correct.
type FailSlow[I, O any] struct {
	// Base is the correct implementation.
	Base core.Variant[I, O]
	// Profile selects the degradation shape. Default SlowConstant.
	Profile SlowProfile
	// Factor is the peak latency multiplier. Default 20.
	Factor float64
	// BaseLatency is the healthy service time the multiplier scales.
	// Required for the fault to have any effect.
	BaseLatency time.Duration
	// Seed drives burst rolls; shared with the campaign so the limp
	// schedule replays exactly.
	Seed uint64
	// Replica salts burst rolls so two bursty limpers stall on
	// different calls. Defaults to Base.Name().
	Replica string
	// RampCalls is how many active calls SlowProgressive takes to reach
	// the full Factor. Default 50.
	RampCalls int
	// BurstProb is the fraction of active calls SlowBursts limps on.
	// Default 0.5.
	BurstProb float64
	// Gate, when non-nil, bounds the fault: the limp is active exactly
	// while Gate returns true. Drivers key it to a fleet-wide request
	// counter so a replica that ejection has starved of traffic still
	// recovers on schedule. When nil the fault is always active.
	Gate func() bool

	// calls counts Execute invocations (active or not) — the per-call
	// index burst rolls and the progressive ramp key off.
	calls atomic.Int64
	// rampFrom remembers the call index at which the current limp
	// episode began, so the progressive ramp restarts after a cure.
	rampFrom atomic.Int64
	// cured is set by Rejuvenate: a micro-reboot repairs the degraded
	// environment and the replica serves at full speed again.
	cured atomic.Bool
}

var _ core.Variant[int, int] = (*FailSlow[int, int])(nil)

// Name implements core.Variant.
func (f *FailSlow[I, O]) Name() string { return f.Base.Name() }

// replica returns the per-replica salt for burst rolls.
func (f *FailSlow[I, O]) replica() string {
	if f.Replica != "" {
		return f.Replica
	}
	return f.Base.Name()
}

func (f *FailSlow[I, O]) factor() float64 {
	if f.Factor > 1 {
		return f.Factor
	}
	return defaultSlowFactor
}

func (f *FailSlow[I, O]) rampCalls() int64 {
	if f.RampCalls > 0 {
		return int64(f.RampCalls)
	}
	return 50
}

func (f *FailSlow[I, O]) burstProb() float64 {
	if f.BurstProb > 0 {
		return f.BurstProb
	}
	return 0.5
}

// active reports whether the limp is switched on right now (gate open
// and not yet cured), independent of the per-call profile decision.
func (f *FailSlow[I, O]) active() bool {
	if f.cured.Load() {
		return false
	}
	if f.Gate != nil {
		return f.Gate()
	}
	return true
}

// multiplier returns the latency multiplier for the given call index —
// ≥ 1, where 1 means "serve at normal speed".
func (f *FailSlow[I, O]) multiplier(idx int64) float64 {
	if !f.active() {
		return 1
	}
	switch f.Profile {
	case SlowProgressive:
		from := f.rampFrom.Load()
		progress := float64(idx-from+1) / float64(f.rampCalls())
		if progress > 1 {
			progress = 1
		}
		if progress < 0 {
			progress = 0
		}
		return 1 + (f.factor()-1)*progress
	case SlowBursts:
		roll := mix(f.Seed ^ HashInt(int(idx)) ^ HashString(f.replica()))
		if float64(roll>>11)/(1<<53) < f.burstProb() {
			return f.factor()
		}
		return 1
	default: // SlowConstant
		return f.factor()
	}
}

// Limping reports whether the replica is currently degraded — the
// ground truth a campaign driver scores ejection verdicts against.
// For SlowBursts this is true whenever the burst window is open, even
// between bursts: the replica is faulty, the fault is just
// intermittent.
func (f *FailSlow[I, O]) Limping() bool { return f.active() }

// Rejuvenate cures the limp, modeling a micro-reboot that replaces the
// degraded environment (the rejuvenation actuator the control plane
// already has). The cure is permanent for this wrapper instance.
func (f *FailSlow[I, O]) Rejuvenate() { f.cured.Store(true) }

// Execute implements core.Variant: sleep out the limp, then serve
// correctly. The sleep honors context cancellation so a hedged or
// abandoned request does not pin the goroutine for the full stall.
func (f *FailSlow[I, O]) Execute(ctx context.Context, input I) (O, error) {
	idx := f.calls.Add(1) - 1
	if !f.active() {
		// Track episode starts: the first active call after an idle
		// stretch re-anchors the progressive ramp.
		f.rampFrom.Store(idx + 1)
		return f.Base.Execute(ctx, input)
	}
	if m := f.multiplier(idx); m > 1 && f.BaseLatency > 0 {
		stall := time.Duration(float64(f.BaseLatency) * (m - 1))
		timer := time.NewTimer(stall)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			var zero O
			return zero, ctx.Err()
		}
	}
	return f.Base.Execute(ctx, input)
}
