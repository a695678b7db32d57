// Package control implements the autonomic control plane: the MAPE
// loop that closes the gap between fleet-wide diagnosis and live
// reconfiguration. A Controller subscribes to the observation stream —
// collector snapshots, SLO burn windows, failure-detector membership,
// health diagnoses — on a fixed reconciliation tick, hands the
// combined picture to its policies (replica replacement, adaptive tail
// tuning, diagnosis-directed recovery), and carries the actions they
// propose out through pluggable actuators.
//
// Every action is published as a ControlActionTaken observation event
// (cause, target, old → new setting), so campaigns can count and gate
// on intervention rates; every actuator sits behind a per-action-kind
// sliding-window rate limit, and the whole loop sits behind a global
// kill switch (SetEnabled) so an operator can freeze the controller
// without tearing it down. In the paper's terms this is the
// self-healing end state: redundancy masks the fault, diagnosis names
// it, and the controller repairs the environment it lives in.
package control

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/obs/health"
	"github.com/softwarefaults/redundancy/internal/supervise"
)

// Action kinds the built-in policies propose. Actuators are registered
// per kind; drivers may define further kinds with their own policies.
const (
	// ActionReplace spawns a replacement replica for a convicted-dead
	// endpoint and splices it into the live endpoint set.
	ActionReplace = "replace"
	// ActionHedgeTune raises or lowers a Remote's hedge delay.
	ActionHedgeTune = "hedge-tune"
	// ActionDepositTune raises or lowers a retry budget's per-request
	// deposit rate.
	ActionDepositTune = "deposit-tune"
	// ActionRejuvenate micro-reboots (or otherwise rejuvenates) a
	// variant whose diagnosis suggests environment-dependent failure.
	ActionRejuvenate = "rejuvenate"
	// ActionSubstitute rebinds a bohrbug-diagnosed variant to a
	// substitute service implementation — retries are futile against a
	// deterministic bug.
	ActionSubstitute = "substitute"
)

// Action is one reconfiguration decision: what to do (Kind), why
// (Cause, e.g. "detector:dead:heartbeat" or "diagnosis:aging"), to
// what (Target), and the setting change (Old → New). Policies propose
// actions; actuators carry them out and may fill in the outcome (a
// replacement policy does not know the new replica's name — its
// actuator does).
type Action struct {
	Kind   string
	Cause  string
	Target string
	Old    string
	New    string
}

// Actuator carries out actions of one kind. It returns the action as
// performed — typically the proposal with Old/New filled in — which is
// what the controller records and emits. An error means the action did
// not happen: policy state is not committed, so the proposal recurs on
// a later tick.
type Actuator func(ctx context.Context, a Action) (Action, error)

// Inputs is the fleet-wide observation picture handed to every policy
// on one reconciliation tick. Fields for sources the controller was
// not given are zero (nil map/slice, nil func) — policies must
// tolerate partial visibility.
type Inputs struct {
	// Now is the tick instant.
	Now time.Time
	// Observed is the collector snapshot (per-executor counters and
	// latency quantiles).
	Observed []obs.ExecutorSnapshot
	// SLO is the burn-rate tracker snapshot (fast window first).
	SLO []obs.SLOStatus
	// Detector is the failure detector's membership verdicts.
	Detector map[string]obs.ReplicaState
	// Evidence returns the detector's evidence against a replica:
	// consecutive heartbeat misses, accumulated accusations, and
	// accumulated slowness reports from the latency ejector.
	Evidence func(name string) (misses, accusations, slowness int)
	// Health is the health engine's diagnosis snapshot.
	Health []health.ExecutorHealth
	// FastBurn returns an executor's fast-window error-budget burn rate.
	FastBurn func(executor string) float64
	// P99 returns an executor's measured p99 request latency (zero when
	// unknown).
	P99 func(executor string) time.Duration
}

// Sources wires the controller to the live observation stream. Every
// field is optional; missing sources leave the corresponding Inputs
// fields zero.
type Sources struct {
	Observed func() []obs.ExecutorSnapshot
	SLO      func() []obs.SLOStatus
	Detector func() map[string]obs.ReplicaState
	Evidence func(name string) (misses, accusations, slowness int)
	Health   func() []health.ExecutorHealth
	FastBurn func(executor string) float64
	P99      func(executor string) time.Duration
}

// Policy inspects one tick's Inputs and proposes actions. Policies are
// stateful (hysteresis, dedup) and are only ever called from the
// controller's reconciliation goroutine, so they need no locking of
// their own.
type Policy interface {
	// Name labels the policy in debugging output.
	Name() string
	// Evaluate proposes zero or more actions for this tick.
	Evaluate(in Inputs) []Action
}

// Committer is an optional Policy extension: the controller calls
// Committed for every proposed action whose actuator succeeded, so a
// policy defers its "already handled" bookkeeping until the action
// actually happened — a rate-limited or failed actuation recurs.
type Committer interface {
	Committed(a Action)
}

// Config parameterizes a Controller. The zero value selects the
// documented defaults.
type Config struct {
	// Name labels the controller in observation events; empty means
	// "controller".
	Name string
	// Tick is the reconciliation period. Default 500ms.
	Tick time.Duration
	// MaxActionsPerKind bounds how many actions of one kind the
	// controller may take against one target within RateWindow — the
	// anti-flap bound. Distinct targets are limited independently, so a
	// noisy target (a replica wearing out repeatedly, say) cannot starve
	// the same kind of repair for a different target. Default 4.
	MaxActionsPerKind int
	// RateWindow is the sliding window of the per-kind-and-target rate
	// limit. Default 10s.
	RateWindow time.Duration
	// Sources feed the per-tick Inputs.
	Sources Sources
	// Policies propose actions, evaluated in order each tick.
	Policies []Policy
	// Actuators carry actions out, by kind. A proposed action with no
	// registered actuator is dropped (and counted as unactuated).
	Actuators map[string]Actuator
	// Observer receives one ControlActionTaken event per performed
	// action; nil observes nothing.
	Observer obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "controller"
	}
	if c.Tick <= 0 {
		c.Tick = 500 * time.Millisecond
	}
	if c.MaxActionsPerKind <= 0 {
		c.MaxActionsPerKind = 4
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 10 * time.Second
	}
	return c
}

// Controller is the reconciliation loop. Create one with New, then
// either Run it (blocking tick loop, supervisable via AsChild) or
// drive Reconcile by hand in tests and simulations.
type Controller struct {
	cfg     Config
	enabled atomic.Bool

	mu      sync.Mutex
	history map[string][]time.Time // per-(kind, target) action instants (rate limit)
	counts  map[string]int         // per-kind performed-action totals

	suppressed atomic.Int64 // proposals dropped by the rate limit
	unactuated atomic.Int64 // proposals with no registered actuator
	failed     atomic.Int64 // actuations that returned an error
	total      atomic.Int64 // performed actions
}

// New builds a controller. It starts enabled; SetEnabled(false) is the
// kill switch.
func New(cfg Config) *Controller {
	c := &Controller{
		cfg:     cfg.withDefaults(),
		history: make(map[string][]time.Time),
		counts:  make(map[string]int),
	}
	c.enabled.Store(true)
	return c
}

// Name returns the controller's observation label.
func (c *Controller) Name() string { return c.cfg.Name }

// Enabled reports whether the loop acts on its ticks.
func (c *Controller) Enabled() bool { return c.enabled.Load() }

// SetEnabled flips the global kill switch. Disabled, the controller
// keeps ticking and observing but proposes and performs nothing —
// re-enabling resumes from fresh evidence rather than a backlog.
func (c *Controller) SetEnabled(on bool) { c.enabled.Store(on) }

// Run drives the reconciliation loop until the context is canceled.
func (c *Controller) Run(ctx context.Context) error {
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case now := <-ticker.C:
			c.Reconcile(ctx, now)
		}
	}
}

// AsChild adapts the reconciliation loop into a supervision-tree
// member, so the controller itself is supervised like everything else
// it manages.
func (c *Controller) AsChild() supervise.ChildSpec {
	return supervise.ChildSpec{
		Name:    c.cfg.Name,
		Restart: supervise.Transient,
		Run:     c.Run,
	}
}

// Reconcile performs one tick: gather Inputs, evaluate every policy,
// rate-limit and actuate the proposals, commit and publish what
// happened. It returns the actions performed this tick. Exposed so
// tests and simulations can step the loop deterministically.
func (c *Controller) Reconcile(ctx context.Context, now time.Time) []Action {
	if !c.enabled.Load() {
		return nil
	}
	in := c.gather(now)
	var taken []Action
	for _, p := range c.cfg.Policies {
		for _, a := range p.Evaluate(in) {
			if !c.allow(a, now) {
				c.suppressed.Add(1)
				continue
			}
			actuate, ok := c.cfg.Actuators[a.Kind]
			if !ok || actuate == nil {
				c.unactuated.Add(1)
				continue
			}
			done, err := actuate(ctx, a)
			if err != nil {
				c.failed.Add(1)
				continue
			}
			c.commit(a, done.Kind, now)
			if cm, ok := p.(Committer); ok {
				cm.Committed(done)
			}
			obs.Emit(c.cfg.Observer, obs.ControlActionTaken(c.cfg.Name,
				done.Kind, done.Cause, done.Target, done.Old, done.New))
			taken = append(taken, done)
		}
	}
	return taken
}

// gather assembles one tick's Inputs from the configured sources.
func (c *Controller) gather(now time.Time) Inputs {
	in := Inputs{
		Now:      now,
		Evidence: c.cfg.Sources.Evidence,
		FastBurn: c.cfg.Sources.FastBurn,
		P99:      c.cfg.Sources.P99,
	}
	if f := c.cfg.Sources.Observed; f != nil {
		in.Observed = f()
	}
	if f := c.cfg.Sources.SLO; f != nil {
		in.SLO = f()
	}
	if f := c.cfg.Sources.Detector; f != nil {
		in.Detector = f()
	}
	if f := c.cfg.Sources.Health; f != nil {
		in.Health = f()
	}
	return in
}

// rateKey is the rate-limit bucket for a proposal: one sliding window
// per (kind, target), so repeated actions against one target are
// throttled without starving the same kind of action for another.
func rateKey(a Action) string { return a.Kind + "\x00" + a.Target }

// allow applies the per-(kind, target) sliding-window rate limit
// (without recording: a proposal only occupies the window once it was
// actually performed, see commit).
func (c *Controller) allow(a Action, now time.Time) bool {
	key := rateKey(a)
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := now.Add(-c.cfg.RateWindow)
	kept := c.history[key][:0]
	for _, t := range c.history[key] {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	c.history[key] = kept
	return len(kept) < c.cfg.MaxActionsPerKind
}

// commit records one performed action against the proposal's rate
// window and the per-kind totals. The window is keyed by the proposed
// target (what allow saw), not the actuator-rewritten one.
func (c *Controller) commit(proposed Action, kind string, now time.Time) {
	c.mu.Lock()
	c.history[rateKey(proposed)] = append(c.history[rateKey(proposed)], now)
	c.counts[kind]++
	c.mu.Unlock()
	c.total.Add(1)
}

// Counts returns a copy of the per-kind performed-action totals.
func (c *Controller) Counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Total returns how many actions the controller has performed.
func (c *Controller) Total() int64 { return c.total.Load() }

// Suppressed returns how many proposals the rate limit dropped.
func (c *Controller) Suppressed() int64 { return c.suppressed.Load() }

// Unactuated returns how many proposals had no registered actuator.
func (c *Controller) Unactuated() int64 { return c.unactuated.Load() }

// Failed returns how many actuations returned an error.
func (c *Controller) Failed() int64 { return c.failed.Load() }
