// Package campaign is the persistence tier of the experiment harness: a
// file-backed store of ULID-keyed runs, each a single JSON document
// capturing the fully resolved configuration (fault model, chaos and
// network schedules, seeds, executor policies, build info), the
// per-trial rows, and the derived aggregates (availability with Wilson
// bounds, latency percentiles, TPR/FPR-style detection rates, and the
// observation-layer counters). On top of the store sit the verbs the
// paper's statistical claims need to become a regression ratchet:
// Execute (parameter-grid sweeps across seeds), Diff (metric deltas
// with noise bounds from the per-seed spread), and Replay (re-execute a
// stored seed+config and assert byte-identical deterministic results).
package campaign

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/stats"
)

// Config is one fully resolved experiment configuration — a single grid
// point of a sweep, or the echo of one faultsim invocation. Everything a
// reproduction needs is in here; `faultsim -config-out` emits exactly
// this struct.
type Config struct {
	// Mode selects the workload: "sim" (Monte Carlo over a pattern
	// executor), "chaos" (a deterministic chaos campaign), or "net" (the
	// distributed replica fleet; recorded by faultsim, not re-executable
	// by Replay — its outcomes are wall-clock).
	Mode string `json:"mode"`
	// Pattern is the executor shape: single, sequential, selection, nvp.
	Pattern string `json:"pattern,omitempty"`
	// Variants is the redundancy degree n.
	Variants int `json:"variants,omitempty"`
	// FailureP and Rho parameterize the sim fault law.
	FailureP float64 `json:"failure_p,omitempty"`
	Rho      float64 `json:"rho,omitempty"`
	// Bohr marks variant k (1-based) as deterministically broken.
	Bohr int `json:"bohr,omitempty"`
	// Trials is the per-seed trial count (for chaos mode, the campaign's
	// own schedule length governs and this echoes it).
	Trials int `json:"trials"`
	// Seed drives every random decision of the trial sequence.
	Seed uint64 `json:"seed"`
	// Chaos is the resolved chaos schedule (chaos mode).
	Chaos *faultmodel.Campaign `json:"chaos,omitempty"`
	// Network is the resolved network-fault schedule (net mode).
	Network *faultmodel.NetworkCampaign `json:"network,omitempty"`
	// Requests is the net-mode workload size (clean network).
	Requests int `json:"requests,omitempty"`
	// Replicas is the quorum fleet size n (quorum mode).
	Replicas int `json:"replicas,omitempty"`
	// Adversary is the Byzantine strategy spec ("always:1", "collude:2")
	// applied to the fleet's first replicas (quorum mode).
	Adversary string `json:"adversary,omitempty"`
	// Control records whether the autonomic controller was live ("on")
	// or the run was the static-configuration control arm ("off").
	// Empty means the invocation had no controller at all.
	Control string `json:"control,omitempty"`
	// Gray records whether the gray-failure mitigation stack (latency
	// ejector + straggler-aware routing) was live ("on") or the run was
	// the unmitigated arm ("off"). Empty means the invocation injected
	// no fail-slow fault at all.
	Gray string `json:"gray,omitempty"`
	// GrayFault is the fail-slow spec injected into the fleet
	// ("constant:20", "progressive:20", "bursts:20"), gray mode only.
	GrayFault string `json:"gray_fault,omitempty"`
	// Executor is the resilience/transport policy stack: RunSeed builds
	// it around sim and chaos executors, internal/scenario around a
	// fleet's client.
	Executor ExecutorConfig `json:"executor,omitempty"`
}

// ExecutorConfig records the policy stack an invocation ran with, so a
// transcript can be reproduced exactly. Zero fields mean the policy was
// not configured.
type ExecutorConfig struct {
	BreakerConsecutiveFailures int                 `json:"breaker_consecutive_failures,omitempty"`
	BreakerOpenFor             faultmodel.Duration `json:"breaker_open_for,omitempty"`
	RetryBaseBackoff           faultmodel.Duration `json:"retry_base_backoff,omitempty"`
	RetryMaxBackoff            faultmodel.Duration `json:"retry_max_backoff,omitempty"`
	RetryJitter                float64             `json:"retry_jitter,omitempty"`
	RetryBudget                int                 `json:"retry_budget,omitempty"`
	BulkheadMaxConcurrent      int                 `json:"bulkhead_max_concurrent,omitempty"`
	BulkheadMaxWaiting         int                 `json:"bulkhead_max_waiting,omitempty"`
	Deadline                   faultmodel.Duration `json:"deadline,omitempty"`
	VariantDeadline            faultmodel.Duration `json:"variant_deadline,omitempty"`
	Fallback                   string              `json:"fallback,omitempty"`
	CallTimeout                faultmodel.Duration `json:"call_timeout,omitempty"`
	HedgeAfter                 faultmodel.Duration `json:"hedge_after,omitempty"`
	MaxHedges                  int                 `json:"max_hedges,omitempty"`
}

// Key is the stable identity of a grid point: two runs are comparable
// point-by-point when their Keys match. Seeds are deliberately excluded
// — the same point swept with different seeds is still the same point.
func (c Config) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s", c.Mode)
	if c.Pattern != "" {
		fmt.Fprintf(&b, " pattern=%s", c.Pattern)
	}
	if c.Variants > 0 {
		fmt.Fprintf(&b, " n=%d", c.Variants)
	}
	if c.FailureP > 0 {
		fmt.Fprintf(&b, " p=%g", c.FailureP)
	}
	if c.Rho > 0 {
		fmt.Fprintf(&b, " rho=%g", c.Rho)
	}
	if c.Bohr > 0 {
		fmt.Fprintf(&b, " bohr=%d", c.Bohr)
	}
	if c.Chaos != nil {
		fmt.Fprintf(&b, " chaos=%s", c.Chaos.Name)
	}
	if c.Network != nil {
		fmt.Fprintf(&b, " net=%s", c.Network.Name)
	}
	if c.Replicas > 0 {
		fmt.Fprintf(&b, " replicas=%d", c.Replicas)
	}
	if c.Adversary != "" {
		fmt.Fprintf(&b, " adversary=%s", c.Adversary)
	}
	if c.Control != "" {
		fmt.Fprintf(&b, " control=%s", c.Control)
	}
	if c.Gray != "" {
		fmt.Fprintf(&b, " gray=%s", c.Gray)
	}
	if c.GrayFault != "" {
		fmt.Fprintf(&b, " grayfault=%s", c.GrayFault)
	}
	fmt.Fprintf(&b, " trials=%d", c.Trials)
	return b.String()
}

// Deterministic reports whether a seed's trial outcomes are a pure
// function of (Config, Seed) — the precondition for Replay's
// byte-identical assertion. Parallel selection races variants against
// the scheduler, the network fleet runs on the wall clock, and a
// recorded resilience-policy stack (breakers, retries, deadlines) makes
// outcomes timing-dependent; none of those replay exactly. The
// plain sequential shapes and nvp do.
func (c Config) Deterministic() bool {
	switch c.Mode {
	case "sim", "chaos":
		return c.Pattern != "selection" && c.Executor == (ExecutorConfig{})
	default:
		return false
	}
}

// BuildInfo pins the binary a run came from.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	Module    string `json:"module,omitempty"`
	Commit    string `json:"commit,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
}

// CurrentBuild captures the running binary's build info (VCS data is
// present only in builds made from a checkout with module info).
func CurrentBuild() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if info, ok := debug.ReadBuildInfo(); ok {
		b.Module = info.Main.Path
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				if len(s.Value) > 12 {
					b.Commit = s.Value[:12]
				} else {
					b.Commit = s.Value
				}
			case "vcs.modified":
				b.Dirty = s.Value == "true"
			}
		}
	}
	return b
}

// Trial is one request's row: what happened, how long it took, who
// served it, what the fault model did to it, and its trace identity.
type Trial struct {
	Index int `json:"i"`
	// Outcome is ok, failed, shed, degraded, or breaker-open.
	Outcome string `json:"outcome"`
	// Latency is wall-clock and therefore excluded from Replay's
	// determinism digest.
	Latency time.Duration `json:"latency_ns"`
	// Variant names who served the accepted answer, when attributable.
	Variant string `json:"variant,omitempty"`
	// Fault is the scheduled disturbance label (ground truth from the
	// fault model), empty for a clean trial.
	Fault string `json:"fault,omitempty"`
	// Detected reports whether the executor observed a variant failure
	// on this trial — the "alarm" half of the TPR/FPR tally. In quorum
	// mode it means the wrong answer was outvoted.
	Detected bool `json:"detected,omitempty"`
	// Wrong reports that the accepted answer itself was wrong — a lie
	// that survived adjudication. The quorum invariant under test is
	// that this never happens while liars ≤ k.
	Wrong bool `json:"wrong,omitempty"`
	// TraceID is the distributed-trace identity, when traced.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Actions counts autonomic-controller reconfigurations that landed
	// while this trial was in flight. Wall-clock-scheduled, so excluded
	// from Replay's determinism digest like Latency.
	Actions int `json:"actions,omitempty"`
}

// Outcome labels.
const (
	OutcomeOK          = "ok"
	OutcomeFailed      = "failed"
	OutcomeShed        = "shed"
	OutcomeDegraded    = "degraded"
	OutcomeBreakerOpen = "breaker-open"
)

// Deterministic is the replay-comparable half of a seed's aggregates:
// pure functions of (Config, Seed) for deterministic configs.
type Deterministic struct {
	Trials   int            `json:"trials"`
	Outcomes map[string]int `json:"outcomes"`
	// Availability is OK/Trials with a 95% Wilson interval.
	Availability   float64 `json:"availability"`
	AvailabilityLo float64 `json:"availability_lo"`
	AvailabilityHi float64 `json:"availability_hi"`
	// VariantServed tallies who served accepted answers.
	VariantServed map[string]int `json:"variant_served,omitempty"`
	// FaultsInjected tallies scheduled disturbances by label;
	// InjectedTrials is the number of trials with at least one.
	FaultsInjected map[string]int `json:"faults_injected,omitempty"`
	InjectedTrials int            `json:"injected_trials"`
	// Detection quality, scored against the fault model's ground truth:
	// TPR is the fraction of injected trials on which the executor
	// observed a variant failure; FPR the fraction of clean trials
	// flagged anyway (breaker artifacts, deadline kills).
	DetectedTrials int     `json:"detected_trials"`
	TPR            float64 `json:"tpr"`
	FPR            float64 `json:"fpr"`
	// WrongAnswers counts trials whose *accepted* answer was wrong —
	// quorum mode's zero-tolerance metric.
	WrongAnswers int `json:"wrong_answers,omitempty"`
}

// Conviction scores the failure detector's end-of-run verdicts against
// the adversary ground truth, per replica: a liar is convicted when the
// detector holds it suspect or dead. TPR is convicted liars over liars;
// FPR is convicted honest replicas over honest replicas.
type Conviction struct {
	Liars           int     `json:"liars"`
	ConvictedLiars  int     `json:"convicted_liars"`
	Honest          int     `json:"honest"`
	ConvictedHonest int     `json:"convicted_honest"`
	TPR             float64 `json:"tpr"`
	FPR             float64 `json:"fpr"`
}

// rates derives the TPR/FPR fields from the tallies.
func (c *Conviction) rates() {
	c.TPR, c.FPR = rate(c.ConvictedLiars, c.Liars), rate(c.ConvictedHonest, c.Honest)
}

// NewConviction tallies detector verdicts (replica name → convicted)
// against the ground-truth liar set.
func NewConviction(liars map[string]bool, convicted map[string]bool) *Conviction {
	c := &Conviction{}
	c.Liars, c.ConvictedLiars, c.Honest, c.ConvictedHonest = tally(liars, convicted)
	c.rates()
	return c
}

// tally scores per-replica verdicts against ground truth: how many
// replicas are faulty and how many of those were flagged, and likewise
// for the healthy ones.
func tally(faulty, flagged map[string]bool) (bad, badFlagged, good, goodFlagged int) {
	for name, isFaulty := range faulty {
		switch {
		case isFaulty:
			bad++
			if flagged[name] {
				badFlagged++
			}
		default:
			good++
			if flagged[name] {
				goodFlagged++
			}
		}
	}
	return bad, badFlagged, good, goodFlagged
}

// rate is n/of, or 0 when of is 0.
func rate(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// Ejection scores the latency ejector's verdicts against the fail-slow
// ground truth, per replica: a limper is caught when the ejector ever
// ejected it during the run. TPR is ejected limpers over limpers; FPR
// is ejected healthy replicas over healthy replicas. TailAmplification
// is the run's p99 over the healthy-phase baseline p99 — the headline
// gray-failure number (mitigated runs should hold it near 1).
type Ejection struct {
	Limpers           int     `json:"limpers"`
	EjectedLimpers    int     `json:"ejected_limpers"`
	Healthy           int     `json:"healthy"`
	EjectedHealthy    int     `json:"ejected_healthy"`
	Reinstated        int     `json:"reinstated"`
	TailAmplification float64 `json:"tail_amplification,omitempty"`
	TPR               float64 `json:"tpr"`
	FPR               float64 `json:"fpr"`
}

// rates derives the TPR/FPR fields from the tallies.
func (e *Ejection) rates() {
	e.TPR, e.FPR = rate(e.EjectedLimpers, e.Limpers), rate(e.EjectedHealthy, e.Healthy)
}

// NewEjection tallies ejector verdicts (replica name → ever ejected)
// against the ground-truth limper set.
func NewEjection(limpers map[string]bool, ejected map[string]bool) *Ejection {
	e := &Ejection{}
	e.Limpers, e.EjectedLimpers, e.Healthy, e.EjectedHealthy = tally(limpers, ejected)
	e.rates()
	return e
}

// Timing is the wall-clock half: real latencies, never replay-compared.
type Timing struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	Mean    time.Duration `json:"mean_ns"`
	P50     time.Duration `json:"p50_ns"`
	P90     time.Duration `json:"p90_ns"`
	P99     time.Duration `json:"p99_ns"`
	Max     time.Duration `json:"max_ns"`
}

// Aggregates derives everything reports and diffs read from one block
// of trials, plus the observation-layer snapshots taken at the end of
// the block.
type Aggregates struct {
	Deterministic Deterministic `json:"deterministic"`
	Timing        Timing        `json:"timing"`
	// Conviction scores replica-level lying-replica detection, attached
	// by quorum-mode recorders (it needs the detector's end state, which
	// trial rows do not carry).
	Conviction *Conviction `json:"conviction,omitempty"`
	// Ejection scores replica-level fail-slow containment, attached by
	// gray-mode recorders (it needs the ejector's end state and the
	// healthy-phase baseline, which trial rows do not carry). Runs
	// without an injected limper leave it nil, so other modes never
	// gate on ejection metrics.
	Ejection *Ejection `json:"ejection,omitempty"`
	// Actions tallies autonomic-controller interventions by action kind
	// (replace, hedge-tune, ...), attached by control-mode recorders.
	// Runs without a controller leave it nil, so static runs never gate
	// on intervention metrics.
	Actions map[string]int `json:"actions,omitempty"`
	// Observed carries the obs Collector's final executor snapshots
	// (hedge/breaker/shed counters, latency histograms) and SLO the
	// SLOTracker's burn-rate state, when the run had them attached.
	Observed []obs.ExecutorSnapshot `json:"observed,omitempty"`
	SLO      []obs.SLOStatus        `json:"slo,omitempty"`
}

// SeedResult is one seed's slice of a grid point.
type SeedResult struct {
	Seed       uint64     `json:"seed"`
	Trials     []Trial    `json:"trials,omitempty"`
	Aggregates Aggregates `json:"aggregates"`
}

// PointResult is one grid point: the resolved config and its per-seed
// results, plus aggregates pooled over every seed's trials.
type PointResult struct {
	Config Config       `json:"config"`
	Seeds  []SeedResult `json:"seeds"`
	Pooled Aggregates   `json:"pooled"`
}

// Run is the persisted document: one ULID-keyed JSON file in the store.
type Run struct {
	ID        string    `json:"id"`
	CreatedAt time.Time `json:"created_at"`
	Name      string    `json:"name,omitempty"`
	Note      string    `json:"note,omitempty"`
	Build     BuildInfo `json:"build"`
	// Spec is the sweep request that produced the run (nil for runs
	// recorded from a single faultsim invocation).
	Spec   *Spec         `json:"spec,omitempty"`
	Points []PointResult `json:"points"`
}

// TotalTrials sums trials across every point and seed.
func (r *Run) TotalTrials() int {
	n := 0
	for _, p := range r.Points {
		for _, s := range p.Seeds {
			n += s.Aggregates.Deterministic.Trials
		}
	}
	return n
}

// Availability is the run-wide pooled availability.
func (r *Run) Availability() float64 {
	ok, n := 0, 0
	for _, p := range r.Points {
		for _, s := range p.Seeds {
			d := s.Aggregates.Deterministic
			ok += d.Outcomes[OutcomeOK]
			n += d.Trials
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}

// Modes returns the distinct modes of the run's points, in order.
func (r *Run) Modes() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Config.Mode] {
			seen[p.Config.Mode] = true
			out = append(out, p.Config.Mode)
		}
	}
	return out
}

// computeAggregates derives the aggregate block from trial rows. The
// collector and SLO snapshots are attached as-is when present.
func computeAggregates(trials []Trial, elapsed time.Duration, observed []obs.ExecutorSnapshot, slo []obs.SLOStatus) Aggregates {
	d := Deterministic{
		Trials:         len(trials),
		Outcomes:       map[string]int{},
		VariantServed:  map[string]int{},
		FaultsInjected: map[string]int{},
	}
	lat := make([]float64, 0, len(trials))
	var latSum, latMax time.Duration
	injected, detectedInjected, detectedClean := 0, 0, 0
	for _, t := range trials {
		d.Outcomes[t.Outcome]++
		if t.Variant != "" {
			d.VariantServed[t.Variant]++
		}
		if t.Fault != "" {
			for _, f := range strings.Split(t.Fault, "+") {
				d.FaultsInjected[f]++
			}
			injected++
			if t.Detected {
				detectedInjected++
			}
		} else if t.Detected {
			detectedClean++
		}
		if t.Detected {
			d.DetectedTrials++
		}
		if t.Wrong {
			d.WrongAnswers++
		}
		lat = append(lat, float64(t.Latency))
		latSum += t.Latency
		if t.Latency > latMax {
			latMax = t.Latency
		}
	}
	d.InjectedTrials = injected
	if injected > 0 {
		d.TPR = float64(detectedInjected) / float64(injected)
	}
	if clean := len(trials) - injected; clean > 0 {
		d.FPR = float64(detectedClean) / float64(clean)
	}
	if len(trials) > 0 {
		if prop, err := stats.NewProportion(d.Outcomes[OutcomeOK], len(trials)); err == nil {
			d.Availability = prop.Estimate
			d.AvailabilityLo = prop.Lo
			d.AvailabilityHi = prop.Hi
		}
	}
	// Empty maps marshal as {}; drop them so the deterministic digest is
	// stable between fresh and decoded runs.
	if len(d.VariantServed) == 0 {
		d.VariantServed = nil
	}
	if len(d.FaultsInjected) == 0 {
		d.FaultsInjected = nil
	}
	tm := Timing{Elapsed: elapsed, Max: latMax}
	if len(lat) > 0 {
		tm.Mean = latSum / time.Duration(len(lat))
		p50, _ := stats.Percentile(lat, 50)
		p90, _ := stats.Percentile(lat, 90)
		p99, _ := stats.Percentile(lat, 99)
		tm.P50, tm.P90, tm.P99 = time.Duration(p50), time.Duration(p90), time.Duration(p99)
	}
	return Aggregates{Deterministic: d, Timing: tm, Observed: observed, SLO: slo}
}

// NewSeedResult derives one seed's aggregates from recorded trial rows
// — the entry point external recorders (cmd/faultsim's -campaign-out)
// use to package an invocation for the store.
func NewSeedResult(seed uint64, trials []Trial, elapsed time.Duration, observed []obs.ExecutorSnapshot, slo []obs.SLOStatus) SeedResult {
	return SeedResult{Seed: seed, Trials: trials, Aggregates: computeAggregates(trials, elapsed, observed, slo)}
}

// NewRecordedRun packages one invocation's results as a single-point run
// document, pooling aggregates across the given seed results.
func NewRecordedRun(name string, cfg Config, seeds ...SeedResult) *Run {
	var all []Trial
	var elapsed time.Duration
	var conv *Conviction
	var ej *Ejection
	var actions map[string]int
	for _, s := range seeds {
		all = append(all, s.Trials...)
		elapsed += s.Aggregates.Timing.Elapsed
		if c := s.Aggregates.Conviction; c != nil {
			if conv == nil {
				conv = &Conviction{}
			}
			conv.Liars += c.Liars
			conv.ConvictedLiars += c.ConvictedLiars
			conv.Honest += c.Honest
			conv.ConvictedHonest += c.ConvictedHonest
		}
		if x := s.Aggregates.Ejection; x != nil {
			if ej == nil {
				ej = &Ejection{}
			}
			ej.Limpers += x.Limpers
			ej.EjectedLimpers += x.EjectedLimpers
			ej.Healthy += x.Healthy
			ej.EjectedHealthy += x.EjectedHealthy
			ej.Reinstated += x.Reinstated
			// The pooled tail amplification is the worst seed's — a
			// mitigation that fails on any seed fails the gate.
			if x.TailAmplification > ej.TailAmplification {
				ej.TailAmplification = x.TailAmplification
			}
		}
		if len(s.Aggregates.Actions) > 0 {
			if actions == nil {
				actions = map[string]int{}
			}
			for kind, n := range s.Aggregates.Actions {
				actions[kind] += n
			}
		}
	}
	pooled := computeAggregates(all, elapsed, nil, nil)
	if conv != nil {
		conv.rates()
		pooled.Conviction = conv
	}
	if ej != nil {
		ej.rates()
		pooled.Ejection = ej
	}
	pooled.Actions = actions
	return &Run{
		Name:   name,
		Build:  CurrentBuild(),
		Points: []PointResult{{Config: cfg, Seeds: seeds, Pooled: pooled}},
	}
}

// Metrics flattens one aggregate block into named scalars — the rows
// Diff compares. Latency metrics are in milliseconds; rates in [0, 1].
func (a *Aggregates) Metrics() map[string]float64 {
	d := &a.Deterministic
	n := float64(d.Trials)
	if n == 0 {
		n = 1
	}
	m := map[string]float64{
		"availability":    d.Availability,
		"failed_rate":     float64(d.Outcomes[OutcomeFailed]) / n,
		"tpr":             d.TPR,
		"fpr":             d.FPR,
		"latency_p50_ms":  float64(a.Timing.P50) / float64(time.Millisecond),
		"latency_p90_ms":  float64(a.Timing.P90) / float64(time.Millisecond),
		"latency_p99_ms":  float64(a.Timing.P99) / float64(time.Millisecond),
		"latency_mean_ms": float64(a.Timing.Mean) / float64(time.Millisecond),
	}
	if v := d.Outcomes[OutcomeShed]; v > 0 {
		m["shed_rate"] = float64(v) / n
	}
	if v := d.Outcomes[OutcomeDegraded]; v > 0 {
		m["degraded_rate"] = float64(v) / n
	}
	if v := d.Outcomes[OutcomeBreakerOpen]; v > 0 {
		m["breaker_open_rate"] = float64(v) / n
	}
	var hedges, hedgeWins int64
	for _, e := range a.Observed {
		hedges += e.Hedges
		hedgeWins += e.HedgeWins
	}
	if hedges > 0 {
		m["hedges_per_trial"] = float64(hedges) / n
		m["hedge_wins_per_trial"] = float64(hedgeWins) / n
	}
	// Byzantine metrics appear only on quorum-mode aggregates, so runs
	// without a conviction block never gate on them.
	if a.Conviction != nil || d.WrongAnswers > 0 {
		m["wrong_answer_rate"] = float64(d.WrongAnswers) / n
	}
	if a.Conviction != nil {
		m["conviction_tpr"] = a.Conviction.TPR
		m["conviction_fpr"] = a.Conviction.FPR
	}
	// Gray-failure metrics appear only on aggregates recorded with a
	// fail-slow fault injected, so other modes never gate on them.
	if a.Ejection != nil {
		m["ejection_tpr"] = a.Ejection.TPR
		m["ejection_fpr"] = a.Ejection.FPR
		if a.Ejection.TailAmplification > 0 {
			m["tail_amplification"] = a.Ejection.TailAmplification
		}
	}
	// Control-plane metrics appear only on aggregates recorded with a
	// controller attached, so static runs never gate on them.
	if a.Actions != nil {
		total := 0
		for _, v := range a.Actions {
			total += v
		}
		m["control_actions_per_trial"] = float64(total) / n
		m["control_replaces"] = float64(a.Actions["replace"])
	}
	return m
}

// MetricDef describes how one metric diffs: its direction and the
// absolute floor under which a delta is never significant.
type MetricDef struct {
	Name string
	// HigherBetter orients regressions; metrics with no direction (the
	// hedge counters) never gate.
	HigherBetter bool
	Directional  bool
	// Timing metrics are wall-clock: they gate only when the diff is
	// asked to (CI machines differ; seeds on one machine do not).
	Timing bool
	// Epsilon is the absolute delta floor.
	Epsilon float64
}

// metricCatalog is the diff's metric table, in report order.
var metricCatalog = []MetricDef{
	{Name: "availability", HigherBetter: true, Directional: true, Epsilon: 0.002},
	{Name: "failed_rate", HigherBetter: false, Directional: true, Epsilon: 0.002},
	{Name: "shed_rate", HigherBetter: false, Directional: true, Epsilon: 0.002},
	{Name: "degraded_rate", HigherBetter: false, Directional: true, Epsilon: 0.002},
	{Name: "breaker_open_rate", HigherBetter: false, Directional: true, Epsilon: 0.002},
	{Name: "tpr", HigherBetter: true, Directional: true, Epsilon: 0.002},
	{Name: "fpr", HigherBetter: false, Directional: true, Epsilon: 0.002},
	{Name: "wrong_answer_rate", HigherBetter: false, Directional: true, Epsilon: 0.0005},
	{Name: "conviction_tpr", HigherBetter: true, Directional: true, Epsilon: 0.02},
	{Name: "conviction_fpr", HigherBetter: false, Directional: true, Epsilon: 0.02},
	{Name: "ejection_tpr", HigherBetter: true, Directional: true, Epsilon: 0.02},
	{Name: "ejection_fpr", HigherBetter: false, Directional: true, Epsilon: 0.02},
	// Tail amplification is a wall-clock ratio (run p99 over healthy
	// baseline p99): timing-gated like the raw latency rows, with a wide
	// floor because a 20× limper makes the unmitigated arm very noisy.
	{Name: "tail_amplification", HigherBetter: false, Directional: true, Timing: true, Epsilon: 0.5},
	{Name: "latency_p50_ms", HigherBetter: false, Directional: true, Timing: true, Epsilon: 0.05},
	{Name: "latency_p90_ms", HigherBetter: false, Directional: true, Timing: true, Epsilon: 0.1},
	{Name: "latency_p99_ms", HigherBetter: false, Directional: true, Timing: true, Epsilon: 0.25},
	{Name: "latency_mean_ms", HigherBetter: false, Directional: true, Timing: true, Epsilon: 0.05},
	{Name: "hedges_per_trial", Directional: false},
	{Name: "hedge_wins_per_trial", Directional: false},
	// More interventions per trial at the same grid point means the
	// controller got less stable (flapping, or the fleet degraded more);
	// replacement counts are pinned because the chaos schedule decides
	// how many replicas die.
	{Name: "control_actions_per_trial", HigherBetter: false, Directional: true, Epsilon: 0.01},
	{Name: "control_replaces", HigherBetter: false, Directional: true, Epsilon: 0.5},
}

// canonicalJSON marshals v deterministically (encoding/json sorts map
// keys), the byte-identity Replay asserts on.
func canonicalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Every type marshaled here is plain data; an error is a bug.
		panic(fmt.Sprintf("campaign: canonical marshal: %v", err))
	}
	return b
}

// deterministicView is the replay-comparable projection of a seed
// result: the trial rows with wall-clock fields zeroed, plus the
// deterministic aggregates.
func deterministicView(s *SeedResult) any {
	trials := make([]Trial, len(s.Trials))
	for i, t := range s.Trials {
		t.Latency = 0
		t.Actions = 0
		trials[i] = t
	}
	return struct {
		Seed          uint64        `json:"seed"`
		Trials        []Trial       `json:"trials"`
		Deterministic Deterministic `json:"deterministic"`
	}{s.Seed, trials, s.Aggregates.Deterministic}
}

// DeterministicDigest is the canonical byte encoding Replay compares.
func (s *SeedResult) DeterministicDigest() []byte {
	return canonicalJSON(deterministicView(s))
}

// sortedKeys is a tiny helper for stable report rendering.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
