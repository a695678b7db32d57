package faultmodel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/resilience"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("250ms") in campaign spec files; bare JSON numbers are nanoseconds.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faultmodel: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// ChaosPhase is one segment of a campaign: a block of consecutive
// requests with a fixed mix of disturbances. Probabilities are fractions
// in [0, 1] of this phase's requests.
type ChaosPhase struct {
	// Name labels the phase in reports.
	Name string `json:"name"`
	// Requests is how many requests the phase spans.
	Requests int `json:"requests"`
	// Concurrency is how many requests the campaign runner keeps in
	// flight during this phase; values < 1 mean 1. Raise it to model
	// overload against a bulkhead.
	Concurrency int `json:"concurrency,omitempty"`
	// ErrorBurst is the fraction of requests on which a chaos-wrapped
	// variant fails with an injected error.
	ErrorBurst float64 `json:"error_burst,omitempty"`
	// LatencySpike is the fraction of requests delayed by SpikeDelay
	// before the variant executes.
	LatencySpike float64 `json:"latency_spike,omitempty"`
	// SpikeDelay is the added latency for LatencySpike activations.
	SpikeDelay Duration `json:"spike_delay,omitempty"`
	// Hangs is the fraction of requests on which the variant blocks until
	// its context is canceled (or the campaign's MaxHang backstop fires).
	Hangs float64 `json:"hangs,omitempty"`
	// Panics is the fraction of requests on which the variant panics
	// (FailPanic manifestation). Pattern executors contain the panic;
	// unguarded call sites crash their goroutine — which is the point
	// when the campaign targets a supervised component.
	Panics float64 `json:"panics,omitempty"`
	// Crashes is the fraction of requests failed with an error wrapping
	// ErrCrashed (FailCrash manifestation): the component "died" and
	// needs a restart, not a retry.
	Crashes float64 `json:"crashes,omitempty"`
	// Correlated makes activation decisions ignore the variant identity,
	// so all chaos-wrapped variants of one request fail together — the
	// common-mode failure that defeats simple redundancy.
	Correlated bool `json:"correlated,omitempty"`
	// Variants restricts which variant names the phase disturbs; empty
	// means all chaos-wrapped variants.
	Variants []string `json:"variants,omitempty"`
}

func (p *ChaosPhase) applies(variant string) bool {
	if len(p.Variants) == 0 {
		return true
	}
	for _, v := range p.Variants {
		if v == variant {
			return true
		}
	}
	return false
}

// Campaign is a deterministic chaos schedule: an ordered list of phases
// driven by a seed. Activation decisions are pure functions of
// (Seed, phase, request index, disturbance kind, variant), so a campaign
// replays identically regardless of goroutine interleaving — the same
// reproducibility discipline as the rest of the fault model.
type Campaign struct {
	// Name labels the campaign in reports.
	Name string `json:"name"`
	// Seed drives every activation decision.
	Seed uint64 `json:"seed"`
	// MaxHang backstops hang disturbances: a hang with no effective
	// context deadline releases (with an error wrapping ErrMaxHang) after
	// this long instead of wedging a goroutine. Zero means 30s.
	MaxHang Duration `json:"max_hang,omitempty"`
	// Phases run in order.
	Phases []ChaosPhase `json:"phases"`
}

// defaultMaxHang bounds hangs whose campaign does not set MaxHang.
const defaultMaxHang = 30 * time.Second

func (c *Campaign) maxHang() time.Duration {
	if d := c.MaxHang.D(); d > 0 {
		return d
	}
	return defaultMaxHang
}

// Total returns the campaign's total request count.
func (c *Campaign) Total() int {
	n := 0
	for i := range c.Phases {
		n += c.Phases[i].Requests
	}
	return n
}

// maxRequests caps a campaign's total request count. It is far beyond
// any experiment here, keeps Total in range on every platform, and bounds
// the one row per request an experiment runner holds.
const maxRequests = 10_000_000

// Validate checks the campaign for structural errors.
func (c *Campaign) Validate() error {
	if len(c.Phases) == 0 {
		return errors.New("faultmodel: campaign has no phases")
	}
	if c.MaxHang < 0 {
		return fmt.Errorf("faultmodel: campaign has negative max_hang %v", c.MaxHang.D())
	}
	total := 0
	for i := range c.Phases {
		p := &c.Phases[i]
		if p.Requests <= 0 {
			return fmt.Errorf("faultmodel: phase %d (%s) has no requests", i, p.Name)
		}
		if p.Requests > maxRequests-total {
			return fmt.Errorf("faultmodel: campaign schedules more than %d requests", maxRequests)
		}
		total += p.Requests
		if p.SpikeDelay < 0 {
			return fmt.Errorf("faultmodel: phase %d (%s) has negative spike_delay %v", i, p.Name, p.SpikeDelay.D())
		}
		for _, frac := range []float64{p.ErrorBurst, p.LatencySpike, p.Hangs, p.Panics, p.Crashes} {
			if !(frac >= 0 && frac <= 1) {
				return fmt.Errorf("faultmodel: phase %d (%s) has probability %v outside [0,1]", i, p.Name, frac)
			}
		}
	}
	return nil
}

// PhaseAt maps a global request index to its phase; it returns (-1, nil)
// past the end of the schedule.
func (c *Campaign) PhaseAt(req uint64) (int, *ChaosPhase) {
	rem := req
	for i := range c.Phases {
		n := uint64(c.Phases[i].Requests)
		if rem < n {
			return i, &c.Phases[i]
		}
		rem -= n
	}
	return -1, nil
}

// Disturbance kinds, mixed into the activation hash so the three
// schedules of one phase are independent.
const (
	kindError   = 0x65
	kindLatency = 0x6c
	kindHang    = 0x68
	kindPanic   = 0x70
	kindCrash   = 0x63
)

// roll is the deterministic activation decision for one disturbance on
// one request: a pure hash of (seed, phase, kind, request, variant) —
// no RNG stream whose order concurrency could perturb. Correlated phases
// drop the variant term, failing every variant of a request together.
func (c *Campaign) roll(phase int, kind uint64, req uint64, variant string, prob float64, correlated bool) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := c.Seed
	h ^= mix(uint64(phase+1) * 0x9e3779b97f4a7c15)
	h ^= mix(kind * 0xbf58476d1ce4e5b9)
	h ^= mix(req*2 + 1)
	if !correlated {
		h ^= HashString(variant)
	}
	return float64(mix(h))/float64(math.MaxUint64) < prob
}

// campaignKey carries the global request index through the context.
type campaignKey struct{}

// WithRequestIndex tags a context with the campaign-global request
// index; Chaos variants read it to decide activation. RunCampaign tags
// every request it issues.
func WithRequestIndex(ctx context.Context, req uint64) context.Context {
	return context.WithValue(ctx, campaignKey{}, req)
}

// RequestIndexFrom extracts the campaign request index, if any.
func RequestIndexFrom(ctx context.Context) (uint64, bool) {
	v, ok := ctx.Value(campaignKey{}).(uint64)
	return v, ok
}

// Chaos decorates a variant with a campaign's disturbances. Outside a
// campaign request (no request index in the context) it is transparent.
// Disturbance order per activation: latency spike, then hang, then error
// burst — a request can be both delayed and failed.
type Chaos[I, O any] struct {
	// Base is the undisturbed variant.
	Base core.Variant[I, O]
	// Campaign is the schedule; nil means transparent.
	Campaign *Campaign
}

var _ core.Variant[int, int] = (*Chaos[int, int])(nil)

// Name implements core.Variant.
func (c *Chaos[I, O]) Name() string { return c.Base.Name() }

// Execute implements core.Variant.
func (c *Chaos[I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	if c.Campaign == nil {
		return c.Base.Execute(ctx, input)
	}
	req, ok := RequestIndexFrom(ctx)
	if !ok {
		return c.Base.Execute(ctx, input)
	}
	pi, phase := c.Campaign.PhaseAt(req)
	if phase == nil || !phase.applies(c.Base.Name()) {
		return c.Base.Execute(ctx, input)
	}
	name := c.Base.Name()
	if c.Campaign.roll(pi, kindLatency, req, name, phase.LatencySpike, phase.Correlated) {
		if d := phase.SpikeDelay.D(); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return zero, ctx.Err()
			case <-t.C:
			}
		}
	}
	if c.Campaign.roll(pi, kindHang, req, name, phase.Hangs, phase.Correlated) {
		t := time.NewTimer(c.Campaign.maxHang())
		select {
		case <-ctx.Done():
			t.Stop()
			return zero, ctx.Err()
		case <-t.C:
			return zero, fmt.Errorf("chaos hang in phase %s, variant %s: %w",
				phase.Name, name, ErrMaxHang)
		}
	}
	if c.Campaign.roll(pi, kindPanic, req, name, phase.Panics, phase.Correlated) {
		panic(&ActivatedError{Fault: "chaos-panic-" + phase.Name, Variant: name})
	}
	if c.Campaign.roll(pi, kindCrash, req, name, phase.Crashes, phase.Correlated) {
		return zero, fmt.Errorf("chaos crash in phase %s, variant %s: %w",
			phase.Name, name, ErrCrashed)
	}
	if c.Campaign.roll(pi, kindError, req, name, phase.ErrorBurst, phase.Correlated) {
		return zero, &ActivatedError{Fault: "chaos-" + phase.Name, Variant: name}
	}
	return c.Base.Execute(ctx, input)
}

// PanicAt reports whether the campaign panics the named variant on the
// given request. Recovery experiments (sim E23) use it to kill a
// supervised worker at a schedule-determined instant without threading a
// Chaos wrapper through the worker's own code path.
func (c *Campaign) PanicAt(req uint64, variant string) bool {
	pi, phase := c.PhaseAt(req)
	if phase == nil || !phase.applies(variant) {
		return false
	}
	return c.roll(pi, kindPanic, req, variant, phase.Panics, phase.Correlated)
}

// CrashAt reports whether the campaign crash-fails the named variant on
// the given request (an error wrapping ErrCrashed).
func (c *Campaign) CrashAt(req uint64, variant string) bool {
	pi, phase := c.PhaseAt(req)
	if phase == nil || !phase.applies(variant) {
		return false
	}
	return c.roll(pi, kindCrash, req, variant, phase.Crashes, phase.Correlated)
}

// DisturbedAt reports which disturbance kinds the campaign activates for
// the named variant on request req, in a fixed order (latency, hang,
// panic, crash, error); empty when the request is undisturbed. Because
// activation decisions are pure functions of the schedule, this is the
// ground truth an experiment harness scores detection quality against —
// whether a disturbance was *scheduled*, independent of whether the
// executor ever ran the variant.
func (c *Campaign) DisturbedAt(req uint64, variant string) []string {
	pi, phase := c.PhaseAt(req)
	if phase == nil || !phase.applies(variant) {
		return nil
	}
	var out []string
	for _, d := range []struct {
		label string
		kind  uint64
		prob  float64
	}{
		{"latency", kindLatency, phase.LatencySpike},
		{"hang", kindHang, phase.Hangs},
		{"panic", kindPanic, phase.Panics},
		{"crash", kindCrash, phase.Crashes},
		{"error", kindError, phase.ErrorBurst},
	} {
		if c.roll(pi, d.kind, req, variant, d.prob, phase.Correlated) {
			out = append(out, d.label)
		}
	}
	return out
}

// ChaosVariants wraps every variant in vs with the campaign.
func ChaosVariants[I, O any](c *Campaign, vs []core.Variant[I, O]) []core.Variant[I, O] {
	out := make([]core.Variant[I, O], len(vs))
	for i, v := range vs {
		out[i] = &Chaos[I, O]{Base: v, Campaign: c}
	}
	return out
}

// PhaseReport is one phase's outcome tally.
type PhaseReport struct {
	Name      string `json:"name"`
	Requests  int    `json:"requests"`
	Succeeded int    `json:"succeeded"`
	// Shed counts requests rejected by admission control
	// (resilience.ErrShedded).
	Shed int `json:"shed,omitempty"`
	// BreakerFast counts failures caused by an open breaker
	// (resilience.ErrBreakerOpen) — rejected without executing.
	BreakerFast int `json:"breaker_fast,omitempty"`
	// Degraded counts failures marked resilience.ErrDegraded: a ladder
	// was configured but could not serve.
	Degraded int `json:"degraded,omitempty"`
	// Failed counts all other failures.
	Failed  int           `json:"failed,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// CampaignReport is the outcome of one campaign run. When RunCampaign is
// given a collector, Observed carries the final observation snapshot, so
// the report includes the shed/degraded-serve/breaker-open counters next
// to the per-phase outcome tallies.
type CampaignReport struct {
	Name     string                 `json:"name"`
	Seed     uint64                 `json:"seed"`
	Phases   []PhaseReport          `json:"phases"`
	Observed []obs.ExecutorSnapshot `json:"observed,omitempty"`
}

// Totals sums the per-phase tallies.
func (r *CampaignReport) Totals() PhaseReport {
	t := PhaseReport{Name: "total"}
	for _, p := range r.Phases {
		t.Requests += p.Requests
		t.Succeeded += p.Succeeded
		t.Shed += p.Shed
		t.BreakerFast += p.BreakerFast
		t.Degraded += p.Degraded
		t.Failed += p.Failed
		t.Elapsed += p.Elapsed
	}
	return t
}

// String renders a human-readable report.
func (r *CampaignReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign %q (seed %d)\n", r.Name, r.Seed)
	fmt.Fprintf(&b, "%-14s %8s %8s %6s %8s %9s %7s %10s\n",
		"phase", "requests", "ok", "shed", "breaker", "degraded", "failed", "elapsed")
	rows := append(append([]PhaseReport{}, r.Phases...), r.Totals())
	for _, p := range rows {
		fmt.Fprintf(&b, "%-14s %8d %8d %6d %8d %9d %7d %10s\n",
			p.Name, p.Requests, p.Succeeded, p.Shed, p.BreakerFast, p.Degraded, p.Failed,
			p.Elapsed.Round(time.Microsecond))
	}
	for _, e := range r.Observed {
		fmt.Fprintf(&b, "obs[%s]: requests=%d masked=%d failed=%d shed=%d degraded_serves=%d breaker_opens=%d\n",
			e.Executor, e.Requests, e.FailuresMasked, e.Failures, e.Shed, e.DegradedServes, e.BreakerOpens)
	}
	return b.String()
}

// classify buckets one request outcome into the phase tally.
func (p *PhaseReport) classify(err error) {
	switch {
	case err == nil:
		p.Succeeded++
	case errors.Is(err, resilience.ErrShedded):
		p.Shed++
	case errors.Is(err, resilience.ErrDegraded):
		p.Degraded++
	case errors.Is(err, resilience.ErrBreakerOpen):
		p.BreakerFast++
	default:
		p.Failed++
	}
}

// RunCampaign drives the executor through the whole schedule, phase by
// phase, with each phase's configured concurrency, and tallies outcomes.
// input derives the request payload from the global request index.
// collector, if non-nil, contributes its final snapshot to the report.
// The injected disturbances are deterministic in the campaign seed; the
// outcome tallies of overload phases depend on real scheduling, which is
// the point of running them.
func RunCampaign[I, O any](ctx context.Context, c *Campaign, exec core.Executor[I, O], input func(req uint64) I, collector *obs.Collector) (*CampaignReport, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rep := &CampaignReport{Name: c.Name, Seed: c.Seed}
	base := uint64(0)
	for i := range c.Phases {
		phase := &c.Phases[i]
		pr := PhaseReport{Name: phase.Name, Requests: phase.Requests}
		conc := phase.Concurrency
		if conc < 1 {
			conc = 1
		}
		var (
			mu  sync.Mutex
			wg  sync.WaitGroup
			sem = make(chan struct{}, conc)
		)
		start := time.Now()
		for r := 0; r < phase.Requests; r++ {
			req := base + uint64(r)
			wg.Add(1)
			sem <- struct{}{}
			go func(req uint64) {
				defer wg.Done()
				defer func() { <-sem }()
				_, err := exec.Execute(WithRequestIndex(ctx, req), input(req))
				mu.Lock()
				pr.classify(err)
				mu.Unlock()
			}(req)
		}
		wg.Wait()
		pr.Elapsed = time.Since(start)
		rep.Phases = append(rep.Phases, pr)
		base += uint64(phase.Requests)
	}
	if collector != nil {
		rep.Observed = collector.Snapshot()
	}
	return rep, nil
}

// ParseCampaign decodes a campaign spec (JSON; durations as Go duration
// strings) and validates it.
func ParseCampaign(data []byte) (*Campaign, error) {
	var c Campaign
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("faultmodel: bad campaign spec: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// DefaultCampaign is the built-in schedule used by `faultsim -chaos`
// without a spec file: a calm warmup, an error burst, a hang phase, an
// overload phase, and a correlated burst, sized to finish in well under a
// second against the simulator's executors.
func DefaultCampaign(seed uint64) *Campaign {
	return &Campaign{
		Name:    "builtin",
		Seed:    seed,
		MaxHang: Duration(2 * time.Second),
		Phases: []ChaosPhase{
			{Name: "warmup", Requests: 200},
			{Name: "error-burst", Requests: 300, ErrorBurst: 0.6},
			{Name: "hangs", Requests: 100, Hangs: 0.3},
			{Name: "overload", Requests: 300, Concurrency: 64, LatencySpike: 0.5, SpikeDelay: Duration(2 * time.Millisecond)},
			{Name: "correlated", Requests: 200, ErrorBurst: 0.5, Correlated: true},
		},
	}
}

// RecoveryCampaign is the built-in schedule for crash-recovery
// experiments (`faultsim -crash`, sim E23): calm traffic interleaved
// with panic and crash phases, so a supervised WAL-backed worker is
// killed repeatedly mid-workload and its restart and data-loss behavior
// can be measured.
func RecoveryCampaign(seed uint64) *Campaign {
	return &Campaign{
		Name:    "recovery",
		Seed:    seed,
		MaxHang: Duration(2 * time.Second),
		Phases: []ChaosPhase{
			{Name: "warmup", Requests: 150},
			{Name: "panics", Requests: 250, Panics: 0.05},
			{Name: "calm", Requests: 100},
			{Name: "crashes", Requests: 250, Crashes: 0.05},
			{Name: "mixed", Requests: 250, Panics: 0.03, Crashes: 0.03},
		},
	}
}
