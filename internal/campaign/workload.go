package campaign

// The built-in workloads `campaign run` sweeps, Replay re-executes, and
// faultsim's -pattern and -chaos modes run: the synthetic subjects of
// the paper's patterns, built here so one (Config, Seed) pair is a
// self-contained, re-executable experiment. Sim trials run strictly in
// order; a chaos schedule runs each phase at its Concurrency, and its
// activation decisions are pure functions of the request index. Either
// way every random draw, chaos activation, and trace identifier is a
// pure function of the pair, so a deterministic config replays
// byte-identically.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/nvp"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/resilience"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// ErrBadConfig reports a configuration the workload layer cannot run.
var ErrBadConfig = errors.New("campaign: unsupported configuration")

// recorder books one row per request, keyed by the request index each
// request's context carries, so concurrent requests (chaos phases run
// at their Concurrency, parallel selection's variants) each land on
// their own row. It is also the executor the driving loop calls: it
// times the request, books its outcome, and re-arms the pattern.
type recorder struct {
	mu       sync.Mutex
	rows     []Trial
	exec     core.Executor[int, int]
	reset    func()                    // re-arms executors that latch variant failures
	truth    func(req uint64) []string // the schedule's disturbances of a request (chaos)
	done     atomic.Int64
	progress func(done, total int)
}

func newRecorder(seed uint64, total int, progress func(done, total int)) *recorder {
	rows := make([]Trial, total)
	for i := range rows {
		rows[i] = Trial{Index: i, TraceID: TrialTraceID(seed, i)}
	}
	return &recorder{rows: rows, reset: func() {}, progress: progress}
}

// row returns the row of the request ctx carries; callers hold r.mu.
func (r *recorder) row(ctx context.Context) *Trial {
	req, _ := faultmodel.RequestIndexFrom(ctx)
	return &r.rows[req]
}

// inject adds a ground-truth fault label to the request's row.
func (r *recorder) inject(ctx context.Context, label string) {
	r.mu.Lock()
	row := r.row(ctx)
	row.Fault = addLabel(row.Fault, label)
	r.mu.Unlock()
}

// addLabel adds label to a sorted "+"-joined label set.
func addLabel(set, label string) string {
	if set == "" {
		return label
	}
	labels := strings.Split(set, "+")
	for _, l := range labels {
		if l == label {
			return set
		}
	}
	labels = append(labels, label)
	sort.Strings(labels)
	return strings.Join(labels, "+")
}

// Execute implements core.Executor: it runs request x, whose index ctx
// carries, and books its row.
func (r *recorder) Execute(ctx context.Context, x int) (int, error) {
	req, _ := faultmodel.RequestIndexFrom(ctx)
	if r.truth != nil {
		for _, label := range r.truth(req) {
			r.inject(ctx, label)
		}
	}
	t0 := time.Now()
	out, err := r.exec.Execute(ctx, x)
	latency := time.Since(t0)
	r.reset() // injected faults are transient between requests
	r.mu.Lock()
	row := r.row(ctx)
	row.Outcome, row.Latency = OutcomeOf(err), latency
	if err != nil {
		row.Variant = ""
	}
	r.mu.Unlock()
	reportProgress(r.progress, int(r.done.Add(1)), len(r.rows))
	return out, err
}

// spy wraps a variant so its failures and serves land on the request's
// row regardless of which executor shape drives it.
func (r *recorder) spy(v core.Variant[int, int]) core.Variant[int, int] {
	return spied{v, r}
}

type spied struct {
	core.Variant[int, int]
	rec *recorder
}

func (v spied) Execute(ctx context.Context, x int) (int, error) {
	out, err := v.Variant.Execute(ctx, x)
	v.rec.mu.Lock()
	row := v.rec.row(ctx)
	if err != nil {
		row.Detected = true
	} else if row.Variant == "" {
		row.Variant = v.Variant.Name()
	}
	v.rec.mu.Unlock()
	return out, err
}

// OutcomeOf buckets a request error into a trial outcome label.
func OutcomeOf(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, resilience.ErrShedded):
		return OutcomeShed
	case errors.Is(err, resilience.ErrDegraded):
		return OutcomeDegraded
	case errors.Is(err, resilience.ErrBreakerOpen):
		return OutcomeBreakerOpen
	default:
		return OutcomeFailed
	}
}

// TrialTraceID derives the deterministic trace identity of one trial —
// the splitmix64 mix of (seed, index), never zero — so a replayed run
// reproduces its trace column exactly without touching the global
// span-identifier stream.
func TrialTraceID(seed uint64, index int) uint64 {
	x := seed ^ (uint64(index)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// RunSeed executes one (config, seed) pair and returns its full result,
// trial rows included (the caller decides whether to persist them). It
// is the one runner behind `campaign run`, `campaign replay`, and
// faultsim's -pattern and -chaos modes. observer, when non-nil, watches
// the pattern executor. Chaos mode also returns the schedule's phase
// report (its Observed left empty: the caller owns the observer).
// progress, when non-nil, is called with (done, total) at a coarse
// cadence.
func RunSeed(ctx context.Context, cfg Config, observer obs.Observer, progress func(done, total int)) (SeedResult, *faultmodel.CampaignReport, error) {
	switch cfg.Mode {
	case "sim":
		if cfg.Pattern == "nvp" {
			res, err := runSeedNVP(ctx, cfg, progress)
			return res, nil, err
		}
		res, err := runSeedDetected(ctx, cfg, observer, progress)
		return res, nil, err
	case "chaos":
		return runSeedChaos(ctx, cfg, observer, progress)
	default:
		return SeedResult{}, nil, fmt.Errorf("%w: mode %q is not executable (net runs are recorded by faultsim)", ErrBadConfig, cfg.Mode)
	}
}

// runSeedNVP drives the N-version ensemble: undetected wrong-answer
// faults adjudicated by majority vote. The ensemble hides its draws, so
// trial rows carry outcome only.
func runSeedNVP(ctx context.Context, cfg Config, progress func(done, total int)) (SeedResult, error) {
	law := faultmodel.CorrelatedFailures{N: cfg.Variants, P: cfg.FailureP, Rho: cfg.Rho}
	ens, err := nvp.NewEnsemble(law, xrand.New(cfg.Seed))
	if err != nil {
		return SeedResult{}, err
	}
	res := SeedResult{Seed: cfg.Seed, Trials: make([]Trial, 0, cfg.Trials)}
	start := time.Now()
	for i := 0; i < cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return SeedResult{}, err
		}
		t0 := time.Now()
		_, correct := ens.Round(1)
		tr := Trial{Index: i, Outcome: OutcomeOK, Latency: time.Since(t0), TraceID: TrialTraceID(cfg.Seed, i)}
		if !correct {
			tr.Outcome = OutcomeFailed
		}
		res.Trials = append(res.Trials, tr)
		reportProgress(progress, i+1, cfg.Trials)
	}
	res.Aggregates = computeAggregates(res.Trials, time.Since(start), nil, nil)
	return res, nil
}

// runSeedDetected drives the detected-failure patterns: variants fail
// with probability FailureP (plus a deterministic Bohr variant). Trials
// run strictly in order, so every random draw is a pure function of the
// pair.
func runSeedDetected(ctx context.Context, cfg Config, observer obs.Observer, progress func(done, total int)) (SeedResult, error) {
	rec := newRecorder(cfg.Seed, cfg.Trials, progress)
	master := xrand.New(cfg.Seed)
	mk := func(i int) core.Variant[int, int] {
		rng := master.Split()
		deterministic := i == cfg.Bohr
		return rec.spy(core.NewVariant(fmt.Sprintf("v%d", i), func(ctx context.Context, x int) (int, error) {
			if deterministic {
				rec.inject(ctx, "bohr")
				return 0, errors.New("deterministic failure")
			}
			if rng.Bool(cfg.FailureP) {
				rec.inject(ctx, "heisen")
				return 0, errors.New("variant failure")
			}
			return x, nil
		}))
	}
	if err := rec.build(cfg, mk, observer); err != nil {
		return SeedResult{}, err
	}
	start := time.Now()
	for i := 0; i < cfg.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return SeedResult{}, err
		}
		_, _ = rec.Execute(faultmodel.WithRequestIndex(ctx, uint64(i)), i) // booked on row i
	}
	return rec.result(cfg.Seed, time.Since(start)), nil
}

// runSeedChaos drives chaos-wrapped healthy variants through the
// campaign schedule with faultmodel.RunCampaign, one trial per scheduled
// request, each phase at its Concurrency. Ground truth comes from the
// schedule itself (Campaign.DisturbedAt), so a masked fault still
// counts as injected.
func runSeedChaos(ctx context.Context, cfg Config, observer obs.Observer, progress func(done, total int)) (SeedResult, *faultmodel.CampaignReport, error) {
	if cfg.Chaos == nil {
		return SeedResult{}, nil, fmt.Errorf("%w: chaos mode without a campaign schedule", ErrBadConfig)
	}
	// The sweep seed drives the schedule: each seed of a point is the
	// same campaign re-rolled.
	camp := *cfg.Chaos
	camp.Seed = cfg.Seed
	if err := camp.Validate(); err != nil {
		return SeedResult{}, nil, err
	}
	rec := newRecorder(cfg.Seed, camp.Total(), progress)
	names := make([]string, 0, cfg.Variants)
	mk := func(i int) core.Variant[int, int] {
		name := fmt.Sprintf("v%d", i)
		names = append(names, name)
		deterministic := i == cfg.Bohr
		base := core.NewVariant(name, func(ctx context.Context, x int) (int, error) {
			if deterministic {
				rec.inject(ctx, "bohr")
				return 0, errors.New("deterministic failure")
			}
			return x, nil
		})
		return rec.spy(&faultmodel.Chaos[int, int]{Base: base, Campaign: &camp})
	}
	if err := rec.build(cfg, mk, observer); err != nil {
		return SeedResult{}, nil, err
	}
	rec.truth = func(req uint64) []string {
		var labels []string
		for _, name := range names {
			labels = append(labels, camp.DisturbedAt(req, name)...)
		}
		return labels
	}
	start := time.Now()
	rep, err := faultmodel.RunCampaign(ctx, &camp, core.Executor[int, int](rec),
		func(req uint64) int { return int(req) }, nil)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return SeedResult{}, nil, err
	}
	return rec.result(cfg.Seed, time.Since(start)), rep, nil
}

// result derives the seed's aggregates from the booked rows.
func (r *recorder) result(seed uint64, elapsed time.Duration) SeedResult {
	return SeedResult{Seed: seed, Trials: r.rows, Aggregates: computeAggregates(r.rows, elapsed, nil, nil)}
}

// build assembles the configured pattern executor over variants from
// mk, with the policy stack cfg.Executor records and observer attached,
// as the executor r drives.
func (r *recorder) build(cfg Config, mk func(i int) core.Variant[int, int], observer obs.Observer) error {
	opts, err := cfg.Executor.patternOptions(cfg.Seed)
	if err != nil {
		return err
	}
	if observer != nil {
		opts = append(opts, pattern.WithObserver(observer))
	}
	accept := func(_ int, _ int) error { return nil }
	n := cfg.Variants
	if n < 1 {
		n = 1
	}
	switch cfg.Pattern {
	case "single", "":
		r.exec, err = pattern.NewSingle(mk(1), opts...)
	case "sequential":
		vs := make([]core.Variant[int, int], n)
		for i := range vs {
			vs[i] = mk(i + 1)
		}
		r.exec, err = pattern.NewSequentialAlternatives(vs, accept, nil, opts...)
	case "selection":
		vs := make([]core.Variant[int, int], n)
		tests := make([]core.AcceptanceTest[int, int], n)
		for i := range vs {
			vs[i] = mk(i + 1)
			tests[i] = accept
		}
		var ps *pattern.ParallelSelection[int, int]
		ps, err = pattern.NewParallelSelection(vs, tests, opts...)
		if err == nil {
			r.exec, r.reset = ps, ps.Reset
		}
	default:
		return fmt.Errorf("%w: pattern %q", ErrBadConfig, cfg.Pattern)
	}
	return err
}

// patternOptions builds the policy stack e records for a pattern
// executor, its retry jitter seeded with seed. Zero fields add nothing.
func (e ExecutorConfig) patternOptions(seed uint64) ([]pattern.Option, error) {
	var opts []pattern.Option
	if b := e.Breakers(); b != nil {
		opts = append(opts, pattern.WithBreaker(b))
	}
	if e.RetryBaseBackoff != 0 || e.RetryMaxBackoff != 0 || e.RetryJitter != 0 || e.RetryBudget != 0 {
		p := resilience.RetryPolicy{
			BaseBackoff: time.Duration(e.RetryBaseBackoff),
			MaxBackoff:  time.Duration(e.RetryMaxBackoff),
			Jitter:      e.RetryJitter,
			Seed:        seed,
		}
		if e.RetryBudget > 0 {
			// Each request deposits one token back into the budget.
			p.Budget = resilience.NewRetryBudget(float64(e.RetryBudget), 1)
		}
		opts = append(opts, pattern.WithRetryPolicy(p))
	}
	if e.BulkheadMaxConcurrent > 0 {
		opts = append(opts, pattern.WithBulkhead(resilience.NewBulkhead(resilience.BulkheadConfig{
			MaxConcurrent: e.BulkheadMaxConcurrent,
			MaxWaiting:    e.BulkheadMaxWaiting,
		})))
	}
	if e.Deadline != 0 || e.VariantDeadline != 0 {
		opts = append(opts, pattern.WithDeadline(resilience.DeadlinePolicy{
			Request: time.Duration(e.Deadline),
			Variant: time.Duration(e.VariantDeadline),
		}))
	}
	switch e.Fallback {
	case "":
	case "cache-last-good":
		opts = append(opts, pattern.WithFallback(resilience.NewLadder[int, int]().CacheLastGood()))
	default:
		return nil, fmt.Errorf("%w: fallback %q (want cache-last-good)", ErrBadConfig, e.Fallback)
	}
	return opts, nil
}

// Breakers returns the circuit-breaker set e records, or nil when no
// breaker is configured.
func (e ExecutorConfig) Breakers() *resilience.Breakers {
	if e.BreakerConsecutiveFailures <= 0 {
		return nil
	}
	return resilience.NewBreakers(resilience.BreakerConfig{
		ConsecutiveFailures: e.BreakerConsecutiveFailures,
		OpenFor:             time.Duration(e.BreakerOpenFor),
	})
}

// reportProgress throttles callbacks to ~2% granularity plus the final
// trial.
func reportProgress(progress func(done, total int), done, total int) {
	if progress == nil {
		return
	}
	step := total / 50
	if step < 1 {
		step = 1
	}
	if done == total || done%step == 0 {
		progress(done, total)
	}
}
