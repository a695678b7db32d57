// Package pattern implements the three inter-component architectural
// patterns of the paper's Figure 1:
//
//   - parallel evaluation (Figure 1a): all alternatives execute in
//     parallel and a single adjudicator evaluates the full result set, as
//     in N-version programming;
//   - parallel selection (Figure 1b): alternatives execute in parallel,
//     each validated by its own adjudicator, and failing components are
//     disabled, as in self-checking programming;
//   - sequential alternatives (Figure 1c): alternatives execute one at a
//     time and the next is activated when the adjudicator detects a
//     failure, as in recovery blocks.
//
// Single is the non-redundant baseline; NewRetry configures it as the
// retry technique (temporal redundancy: one variant re-executed up to a
// fixed number of times), the executor behind composite.Retry.
//
// All executors manage their goroutines: Execute never returns while a
// goroutine it spawned is still running. The parallel executors run the
// first attempt on the caller's goroutine and each other attempt on a
// goroutine of its own, all concurrently; Single and
// SequentialAlternatives run every attempt on the caller's goroutine.
//
// A variant sees the request's context: the caller's, bounded by
// WithDeadline's Request bound when there is one. A caller context
// with no Done is bounded lazily (resilience.WithLazyTimeout: no
// channel or timer until a variant watches it), one that can be
// cancelled by context.WithTimeout. A variant gets a context of its own
// only when its deadline (WithVariantTimeout, or WithDeadline's Variant
// bound) is tighter than the request's; that context ends when the
// variant returns. Every variant context ends when its request's
// deadline passes or the caller cancels, so variants that honor their
// context stop early.
//
// Every executor is observable: WithObserver attaches an obs.Observer
// that receives request/variant spans, adjudication decisions and
// recovery actions; an obs.Collector turns them into the per-executor
// counters of the paper's cost model. With no observer configured the
// executors take a fast path that performs no observation work and no
// allocations.
package pattern

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/resilience"
)

// Executor names used in observation events and log records.
const (
	nameParallelEvaluation     = "parallel-evaluation"
	nameParallelSelection      = "parallel-selection"
	nameSequentialAlternatives = "sequential-alternatives"
	nameSingle                 = "single"
	nameRetry                  = "retry"
)

// config carries options shared by the pattern executors.
type config struct {
	observer obs.Observer
	// traced caches obs.WantsTrace(observer): per-request trace spans are
	// derived (one context allocation) only when an attached observer
	// records them, preserving the unobserved and counter-only fast paths.
	traced         bool
	variantTimeout time.Duration
	logger         *slog.Logger
	ranker         Ranker

	// Resilience policies (internal/resilience). All nil/zero by
	// default: executors with no policies configured keep their exact
	// legacy hot path, with no extra work and no extra allocations.
	breakers *resilience.Breakers
	retrier  *resilience.Retrier
	bulkhead *resilience.Bulkhead
	deadline resilience.DeadlinePolicy
	// fallback holds a *resilience.Ladder[I, O]; it is stored untyped
	// because options are not generic, and re-typed by the executor
	// (WithFallback's generic signature keeps call sites type-safe).
	fallback any
}

// Ranker orders variant names, best first, for an executor. The health
// diagnosis engine (internal/obs/health) implements it over live EWMA
// health scores, closing the observe→diagnose→act loop: executors that
// honor an order of preference consult the ranker per request.
type Ranker interface {
	// Rank returns names reordered best-first. Implementations must
	// return a permutation-like ordering; names they do not recognize
	// should keep their relative order.
	Rank(executor string, names []string) []string
}

// WithRanker attaches a variant ranker. SequentialAlternatives then
// tries variants healthiest-first (instead of configured order), and
// ParallelSelection prefers the healthiest acceptable result (the
// ranker decides which live variant is "acting" and which are spares).
// ParallelEvaluation and Single ignore the ranker — they have no order
// of preference. A nil ranker leaves the configured order untouched.
func WithRanker(r Ranker) Option {
	return func(c *config) { c.ranker = r }
}

// rankLive reorders the live variant indices by the ranker's preference.
// Names the ranker drops or invents are tolerated: ranked names pick the
// first not-yet-used live variant with that name, and leftovers append
// in configured order.
func rankLive[I, O any](r Ranker, executor string, vs []core.Variant[I, O], live []int) []int {
	names := make([]string, len(live))
	for i, idx := range live {
		names[i] = vs[idx].Name()
	}
	ranked := r.Rank(executor, names)
	out := make([]int, 0, len(live))
	used := make([]bool, len(live))
	for _, name := range ranked {
		for i, idx := range live {
			if !used[i] && vs[idx].Name() == name {
				out = append(out, idx)
				used[i] = true
				break
			}
		}
	}
	for i, idx := range live {
		if !used[i] {
			out = append(out, idx)
		}
	}
	return out
}

// rankVariants returns variants reordered by the ranker's preference.
func rankVariants[I, O any](r Ranker, executor string, vs []core.Variant[I, O]) []core.Variant[I, O] {
	out := make([]core.Variant[I, O], len(vs))
	for i, idx := range rankLive(r, executor, vs, allIndices(len(vs))) {
		out[i] = vs[idx]
	}
	return out
}

// Option configures a pattern executor.
type Option func(*config)

// WithObserver attaches an observer receiving request and variant spans,
// adjudication decisions, and recovery actions (component disablement,
// retries, rollbacks). Multiple WithObserver options compose: every
// attached observer sees every event.
func WithObserver(o obs.Observer) Option {
	return func(c *config) { c.observer = obs.Combine(c.observer, o) }
}

// WithVariantTimeout bounds each variant execution. A zero duration means
// no per-variant timeout; the ambient context still applies.
func WithVariantTimeout(d time.Duration) Option {
	return func(c *config) { c.variantTimeout = d }
}

// WithLogger attaches a structured logger; executors emit debug-level
// events for variant failures and info-level events when redundancy masks
// a failure or an executor fails outright.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// WithBreaker attaches a circuit-breaker set: each variant gets its own
// breaker, consulted before every execution. Calls to a variant whose
// breaker is open fail fast (error wrapping resilience.ErrBreakerOpen)
// without executing, so sequential alternatives skip straight to the
// next alternate and parallel executors stop hammering a variant that
// fails deterministically. State transitions emit BreakerStateChanged
// observation events under this executor's name.
func WithBreaker(b *resilience.Breakers) Option {
	return func(c *config) { c.breakers = b }
}

// WithRetryPolicy attaches a retry pacing policy. SequentialAlternatives
// applies it between alternates (exponential backoff with seeded jitter,
// optional shared retry budget, optional attempt cap); Single re-executes
// its variant up to the policy's MaxAttempts. The parallel executors have
// no sequential attempt loop and ignore the policy, like they ignore a
// ranker.
func WithRetryPolicy(p resilience.RetryPolicy) Option {
	return func(c *config) { c.retrier = resilience.NewRetrier(p) }
}

// WithBulkhead bounds the executor's concurrency: requests beyond the
// bulkhead's limits are shed fast with resilience.ErrShedded (emitting a
// RequestShed observation event) instead of queueing without bound. The
// wait for an execution slot honors the request context's deadline.
func WithBulkhead(b *resilience.Bulkhead) Option {
	return func(c *config) { c.bulkhead = b }
}

// WithDeadline attaches a deadline policy: Request bounds each Execute
// call end to end, and Variant is the default per-variant deadline used
// when WithVariantTimeout is not configured — so a hung variant
// (faultmodel's FailHang) can never wedge the executor even when the
// caller forgot a context deadline. A tighter inherited context deadline
// always wins.
func WithDeadline(p resilience.DeadlinePolicy) Option {
	return func(c *config) { c.deadline = p }
}

// WithFallback attaches a degradation ladder: when the executor fails,
// it serves the cached last-good value, then the configured degraded
// variant, before giving up with an error wrapping
// resilience.ErrDegraded. Successful results feed the ladder's last-good
// cache; serves from the ladder emit DegradedServe observation events
// and report the request outcome as masked. The ladder's value types
// must match the executor's — the generic signature enforces this at
// the call site.
func WithFallback[I, O any](l *resilience.Ladder[I, O]) Option {
	return func(c *config) { c.fallback = l }
}

// logVariantFailure emits one event per failed variant result.
func (c config) logVariantFailure(executor, variant string, err error) {
	if c.logger == nil || err == nil {
		return
	}
	c.logger.Debug("variant failed",
		"executor", executor, "variant", variant, "err", err.Error())
}

// logOutcome emits an event when redundancy masked a failure or when the
// executor failed.
func (c config) logOutcome(executor string, masked bool, err error) {
	if c.logger == nil {
		return
	}
	switch {
	case err != nil:
		c.logger.Info("redundant execution failed", "executor", executor, "err", err.Error())
	case masked:
		c.logger.Info("failure masked by redundancy", "executor", executor)
	}
}

func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	c.traced = obs.WantsTrace(c.observer)
	return c
}

// bindResilience attaches the executor identity to stateful policies so
// their events carry the right executor name. Constructors call it once.
func (c *config) bindResilience(executor string) {
	if c.breakers != nil {
		c.breakers.Bind(executor, c.observer)
	}
}

// admission is what an admitted request holds until it settles: its
// bulkhead slot and its deadline. The zero value holds nothing.
type admission struct {
	bulkhead *resilience.Bulkhead
	// The request deadline: lazy under a caller context that cannot be
	// cancelled, context.WithTimeout's under one that can.
	lazy   *resilience.DeadlineContext
	cancel context.CancelFunc
}

// release gives back the bulkhead slot and ends the request deadline.
func (a admission) release() {
	if a.bulkhead != nil {
		a.bulkhead.Release()
	}
	if a.lazy != nil {
		a.lazy.End()
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// admit runs the resilience front of one Execute call: the request
// deadline and bulkhead admission. It returns the (possibly bounded)
// context and the admission to release; a non-nil error means the
// request was shed (RequestShed emitted) and must fail fast without
// executing.
//
// A caller context with no Done is bounded by a lazy deadline context,
// which costs one object until something watches it. One that can be
// cancelled keeps context.WithTimeout, whose Cause is the caller's
// cause when the caller ends the request.
func (c *config) admit(ctx context.Context, executor string, req uint64) (context.Context, admission, error) {
	var a admission
	if c.deadline.Request > 0 {
		if ctx.Done() == nil {
			a.lazy = resilience.WithLazyTimeout(ctx, c.deadline.Request)
			ctx = a.lazy
		} else {
			ctx, a.cancel = context.WithTimeout(ctx, c.deadline.Request)
		}
	}
	if c.bulkhead != nil {
		if err := c.bulkhead.Acquire(ctx); err != nil {
			a.release()
			if o := c.observer; o != nil && req != 0 {
				obs.Emit(o, obs.RequestShed(executor, req))
			}
			return ctx, admission{}, err
		}
		a.bulkhead = c.bulkhead
	}
	return ctx, a, nil
}

// storeLastGood feeds an accepted result into the configured
// degradation ladder's last-good cache.
func storeLastGood[I, O any](cfg config, value O) {
	if cfg.fallback == nil {
		return
	}
	if l, ok := cfg.fallback.(*resilience.Ladder[I, O]); ok {
		l.Store(value)
	}
}

// serveFallback consults the degradation ladder after an executor
// failure. ok reports that a rung served; the DegradedServe event is
// emitted under the executor's name.
func serveFallback[I, O any](ctx context.Context, cfg config, executor string, req uint64, input I) (O, bool) {
	var zero O
	if cfg.fallback == nil {
		return zero, false
	}
	l, ok := cfg.fallback.(*resilience.Ladder[I, O])
	if !ok {
		return zero, false
	}
	v, source, err := l.Serve(ctx, input)
	if err != nil {
		return zero, false
	}
	if o := cfg.observer; o != nil && req != 0 {
		obs.Emit(o, obs.DegradedServe(executor, req, source))
	}
	return v, true
}

// degradedError marks a failure as degraded when a ladder was
// configured but could not serve; without a ladder the error passes
// through untouched (legacy behavior).
func degradedError(cfg config, err error) error {
	if cfg.fallback == nil {
		return err
	}
	return fmt.Errorf("%w: %w", resilience.ErrDegraded, err)
}

// finish settles one request on the executor's own verdict: an accepted
// value feeds the ladder's last-good cache, a failure is served by the
// ladder when it can be (reported as masked) and marked degraded when it
// cannot, and the outcome is logged and closes the request span.
// detected is the executor's failure-detected flag for the request.
func finish[I, O any](ctx context.Context, cfg config, executor string, req uint64, start time.Time, input I, value O, err error, detected bool) (O, error) {
	if err == nil {
		storeLastGood[I, O](cfg, value)
	} else if v, ok := serveFallback[I, O](ctx, cfg, executor, req, input); ok {
		value, err, detected = v, nil, true
	} else {
		err = degradedError(cfg, err)
	}
	cfg.logOutcome(executor, detected, err)
	cfg.endRequest(executor, req, start, err == nil, detected)
	return value, err
}

// stopped is the error of an attempt loop that stopped early — its
// context ended or the retry budget ran dry: cause, still wrapping the
// last attempt's failure when there was one.
func stopped(cause, lastErr error) error {
	if lastErr == nil {
		return cause
	}
	return fmt.Errorf("%w: %w", cause, lastErr)
}

// startRequest opens an observed request span. It returns the request ID
// (0 when unobserved, so downstream events know to stay silent) and the
// span start time. When the observer records traces the returned context
// carries the request's span — a child of any span already on ctx — so
// nested executors and remote variants continue the causal trace.
func (c config) startRequest(ctx context.Context, executor string) (context.Context, uint64, time.Time) {
	o := c.observer
	if o == nil {
		return ctx, 0, time.Time{}
	}
	req := obs.NextRequestID()
	start := time.Now()
	o.RequestStart(executor, req)
	if c.traced {
		var tc obs.TraceContext
		ctx, tc = obs.StartTrace(ctx)
		obs.EmitRequestTraced(o, executor, req, tc)
	}
	return ctx, req, start
}

// endRequest closes an observed request span with the executor's
// adjudication decision and classified outcome.
func (c config) endRequest(executor string, req uint64, start time.Time, accepted, failureDetected bool) {
	o := c.observer
	if o == nil || req == 0 {
		return
	}
	o.Adjudicated(executor, req, accepted, failureDetected)
	o.RequestEnd(executor, req, time.Since(start), outcomeOf(accepted, failureDetected))
}

// outcomeOf classifies a request end state.
func outcomeOf(accepted, failureDetected bool) obs.Outcome {
	switch {
	case !accepted:
		return obs.OutcomeFailed
	case failureDetected:
		return obs.OutcomeMasked
	default:
		return obs.OutcomeSuccess
	}
}

// runVariant executes one variant with latency accounting, the configured
// timeout, and panic containment: a panicking variant yields an ordinary
// failed Result instead of crashing the executor. When req is a live
// request ID the execution is bracketed by VariantStart/VariantEnd
// observation events. The variant runs under ctx itself unless its own
// deadline is tighter than ctx's.
func runVariant[I, O any](ctx context.Context, cfg *config, executor string, req uint64, v core.Variant[I, O], input I) core.Result[O] {
	var (
		brk *resilience.Breaker
		tok resilience.Token
	)
	if cfg.breakers != nil {
		brk = cfg.breakers.For(v.Name())
		var err error
		if tok, err = brk.Allow(); err != nil {
			// Rejected fast: no execution, no variant span — the
			// breaker's whole point is that the variant does no work.
			return core.Result[O]{Variant: v.Name(), Err: err}
		}
	}
	if o := cfg.observer; o != nil && req != 0 {
		o.VariantStart(executor, v.Name(), req)
	}
	start := time.Now()
	if d := cfg.deadline.VariantDeadline(cfg.variantTimeout); d > 0 {
		if end, ok := ctx.Deadline(); !ok || start.Add(d).Before(end) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, start.Add(d))
			defer cancel()
		}
	}
	value, err := core.ExecuteGuarded(ctx, v, input)
	r := core.Result[O]{
		Variant: v.Name(),
		Value:   value,
		Err:     err,
		Latency: time.Since(start),
	}
	if brk != nil {
		brk.Record(tok, r.Err)
	}
	if o := cfg.observer; o != nil && req != 0 {
		o.VariantEnd(executor, r.Variant, req, r.Latency, r.Err)
	}
	return r
}

// inlineResults is how many results a batch holds without a second
// allocation: Figure 1's three versions.
const inlineResults = 3

// batch is one request's parallel launch: what every attempt shares and
// where each leaves its result.
type batch[I, O any] struct {
	ctx      context.Context
	cfg      *config
	executor string
	req      uint64
	vs       []core.Variant[I, O]
	idx      []int
	input    I

	wg      sync.WaitGroup
	results []core.Result[O]
	inline  [inlineResults]core.Result[O]
}

// run runs the attempt in slot and counts it done.
func (b *batch[I, O]) run(slot int) {
	defer b.wg.Done()
	b.results[slot] = runVariant(b.ctx, b.cfg, b.executor, b.req, b.vs[b.idx[slot]], b.input)
}

// runAll runs vs[i] for every i in idx concurrently and returns the
// results in idx order. It is the one launch loop of the parallel
// executors: attempts 2..n get a goroutine each, attempt 1 runs on the
// caller's, and runAll returns once every attempt has.
func runAll[I, O any](ctx context.Context, cfg *config, executor string, req uint64, vs []core.Variant[I, O], idx []int, input I) []core.Result[O] {
	b := &batch[I, O]{ctx: ctx, cfg: cfg, executor: executor, req: req, vs: vs, idx: idx, input: input}
	if len(idx) <= inlineResults {
		b.results = b.inline[:len(idx)]
	} else {
		b.results = make([]core.Result[O], len(idx))
	}
	b.wg.Add(len(idx))
	for slot := 1; slot < len(idx); slot++ {
		go b.run(slot)
	}
	b.run(0)
	b.wg.Wait()
	return b.results
}

// allIndices returns 0..n-1.
func allIndices(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// ParallelEvaluation is the Figure 1a executor: it runs every variant on
// the same input concurrently and hands all results to one adjudicator.
type ParallelEvaluation[I, O any] struct {
	cfg         config
	variants    []core.Variant[I, O]
	all         []int // every variant index, the launch list
	adjudicator core.Adjudicator[O]
}

var _ core.Executor[int, int] = (*ParallelEvaluation[int, int])(nil)

// NewParallelEvaluation builds a parallel-evaluation executor. It returns
// an error if no variants or no adjudicator are supplied.
func NewParallelEvaluation[I, O any](variants []core.Variant[I, O], adj core.Adjudicator[O], opts ...Option) (*ParallelEvaluation[I, O], error) {
	if len(variants) == 0 {
		return nil, core.ErrNoVariants
	}
	if adj == nil {
		return nil, fmt.Errorf("pattern: nil adjudicator")
	}
	vs := make([]core.Variant[I, O], len(variants))
	copy(vs, variants)
	cfg := newConfig(opts)
	cfg.bindResilience(nameParallelEvaluation)
	return &ParallelEvaluation[I, O]{cfg: cfg, variants: vs, all: allIndices(len(vs)), adjudicator: adj}, nil
}

// Execute implements core.Executor.
func (p *ParallelEvaluation[I, O]) Execute(ctx context.Context, input I) (O, error) {
	ctx, req, start := p.cfg.startRequest(ctx, nameParallelEvaluation)
	ctx, adm, admitErr := p.cfg.admit(ctx, nameParallelEvaluation, req)
	if admitErr != nil {
		var zero O
		p.cfg.endRequest(nameParallelEvaluation, req, start, false, false)
		return zero, admitErr
	}
	defer adm.release()
	results := p.executeAll(ctx, input, req)
	value, err := p.adjudicator.Adjudicate(results)
	anyFailed := false
	for _, r := range results {
		if !r.OK() {
			anyFailed = true
			p.cfg.logVariantFailure(nameParallelEvaluation, r.Variant, r.Err)
		}
	}
	return finish(ctx, p.cfg, nameParallelEvaluation, req, start, input, value, err, anyFailed)
}

// ExecuteAll runs every variant concurrently and returns all results in
// variant order. It is exposed so callers (e.g. experiments) can inspect
// the raw result vector; such direct executions are not observed, because
// no request-level adjudication takes place.
func (p *ParallelEvaluation[I, O]) ExecuteAll(ctx context.Context, input I) []core.Result[O] {
	return p.executeAll(ctx, input, 0)
}

func (p *ParallelEvaluation[I, O]) executeAll(ctx context.Context, input I, req uint64) []core.Result[O] {
	return runAll(ctx, &p.cfg, nameParallelEvaluation, req, p.variants, p.all, input)
}

// ParallelSelection is the Figure 1b executor: live variants run
// concurrently, each result is validated by the variant's own acceptance
// test, and the acceptable result of the highest-priority variant (the
// earliest configured, or the healthiest under a ranker) is returned
// once every variant has finished. Variants whose results are rejected
// are disabled for subsequent requests.
type ParallelSelection[I, O any] struct {
	cfg      config
	variants []core.Variant[I, O]
	all      []int // every variant index, the launch list while none is disabled
	tests    []core.AcceptanceTest[I, O]

	mu       sync.Mutex
	disabled map[string]bool
}

var _ core.Executor[int, int] = (*ParallelSelection[int, int])(nil)

// NewParallelSelection builds a parallel-selection executor. tests[i]
// validates variants[i]; the slices must have equal length.
func NewParallelSelection[I, O any](variants []core.Variant[I, O], tests []core.AcceptanceTest[I, O], opts ...Option) (*ParallelSelection[I, O], error) {
	if len(variants) == 0 {
		return nil, core.ErrNoVariants
	}
	if len(tests) != len(variants) {
		return nil, fmt.Errorf("pattern: %d variants but %d acceptance tests", len(variants), len(tests))
	}
	vs := make([]core.Variant[I, O], len(variants))
	copy(vs, variants)
	ts := make([]core.AcceptanceTest[I, O], len(tests))
	copy(ts, tests)
	cfg := newConfig(opts)
	cfg.bindResilience(nameParallelSelection)
	return &ParallelSelection[I, O]{
		cfg:      cfg,
		variants: vs,
		all:      allIndices(len(vs)),
		tests:    ts,
		disabled: make(map[string]bool),
	}, nil
}

// Disabled returns the names of currently disabled variants.
func (p *ParallelSelection[I, O]) Disabled() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var names []string
	for _, v := range p.variants {
		if p.disabled[v.Name()] {
			names = append(names, v.Name())
		}
	}
	return names
}

// Reset re-enables all variants.
func (p *ParallelSelection[I, O]) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.disabled = make(map[string]bool)
}

// Execute implements core.Executor. All live variants run in parallel;
// every result is validated by its variant's own acceptance test, and
// rejected variants are disabled. The result of the highest-priority
// (earliest-configured) acceptable variant is returned: the "acting"
// component's result is used unless it failed, in which case the next
// "hot spare" takes over without any rollback.
func (p *ParallelSelection[I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	ctx, req, start := p.cfg.startRequest(ctx, nameParallelSelection)
	ctx, adm, admitErr := p.cfg.admit(ctx, nameParallelSelection, req)
	if admitErr != nil {
		p.cfg.endRequest(nameParallelSelection, req, start, false, false)
		return zero, admitErr
	}
	defer adm.release()

	p.mu.Lock()
	live := p.all
	if len(p.disabled) > 0 {
		live = nil
		for i, v := range p.variants {
			if !p.disabled[v.Name()] {
				live = append(live, i)
			}
		}
	}
	p.mu.Unlock()

	if len(live) == 0 {
		err := fmt.Errorf("all variants disabled: %w", core.ErrAllVariantsFailed)
		return finish(ctx, p.cfg, nameParallelSelection, req, start, input, zero, err, false)
	}
	if p.cfg.ranker != nil && len(live) > 1 {
		// Health-ranked priority: the healthiest live variant acts, the
		// rest are hot spares (acceptance order below follows live order).
		live = rankLive(p.cfg.ranker, nameParallelSelection, p.variants, live)
	}

	results := runAll(ctx, &p.cfg, nameParallelSelection, req, p.variants, live, input)
	var (
		accepted    bool
		value       O
		anyRejected bool
	)
	for slot, i := range live {
		r := results[slot]
		err := r.Err
		if err == nil {
			err = p.tests[i](input, r.Value)
		}
		if err != nil {
			anyRejected = true
			p.cfg.logVariantFailure(nameParallelSelection, p.variants[i].Name(), err)
			// A breaker rejection is preventive, not new evidence of a
			// faulty component: the variant did not run, so it is skipped
			// for this request but not permanently disabled.
			if !errors.Is(err, resilience.ErrBreakerOpen) {
				p.disable(p.variants[i].Name())
				if o := p.cfg.observer; o != nil {
					o.ComponentDisabled(nameParallelSelection, p.variants[i].Name(), req)
				}
			}
			continue
		}
		if !accepted {
			accepted = true
			value = r.Value
		}
	}
	var err error
	if !accepted {
		err = core.ErrAllVariantsFailed
	}
	return finish(ctx, p.cfg, nameParallelSelection, req, start, input, value, err, anyRejected)
}

func (p *ParallelSelection[I, O]) disable(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.disabled[name] = true
}

// SequentialAlternatives is the Figure 1c executor: it runs alternatives
// one at a time, validating each result with the acceptance test and
// moving to the next alternative on rejection, optionally restoring state
// between attempts (the recovery-block rollback).
type SequentialAlternatives[I, O any] struct {
	cfg      config
	variants []core.Variant[I, O]
	test     core.AcceptanceTest[I, O]
	rollback func(ctx context.Context) error
}

var _ core.Executor[int, int] = (*SequentialAlternatives[int, int])(nil)

// NewSequentialAlternatives builds a sequential-alternatives executor.
// rollback, if non-nil, is invoked before each retry to restore a
// consistent state.
func NewSequentialAlternatives[I, O any](variants []core.Variant[I, O], test core.AcceptanceTest[I, O], rollback func(ctx context.Context) error, opts ...Option) (*SequentialAlternatives[I, O], error) {
	if len(variants) == 0 {
		return nil, core.ErrNoVariants
	}
	if test == nil {
		return nil, fmt.Errorf("pattern: nil acceptance test")
	}
	vs := make([]core.Variant[I, O], len(variants))
	copy(vs, variants)
	cfg := newConfig(opts)
	cfg.bindResilience(nameSequentialAlternatives)
	return &SequentialAlternatives[I, O]{
		cfg:      cfg,
		variants: vs,
		test:     test,
		rollback: rollback,
	}, nil
}

// Execute implements core.Executor.
func (s *SequentialAlternatives[I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	ctx, req, start := s.cfg.startRequest(ctx, nameSequentialAlternatives)
	ctx, adm, admitErr := s.cfg.admit(ctx, nameSequentialAlternatives, req)
	if admitErr != nil {
		s.cfg.endRequest(nameSequentialAlternatives, req, start, false, false)
		return zero, admitErr
	}
	defer adm.release()
	variants := s.variants
	if s.cfg.ranker != nil {
		variants = rankVariants(s.cfg.ranker, nameSequentialAlternatives, s.variants)
	}
	n := len(variants)
	if r := s.cfg.retrier; r != nil && r.AttemptCap() > 0 {
		n = min(n, r.AttemptCap())
	}
	value, attempts, err := runAttempts(ctx, &s.cfg, nameSequentialAlternatives, req, n, input,
		variants, s.test, s.rollback)
	if err != nil {
		value, err = zero, fmt.Errorf("%w: %w", core.ErrAllVariantsFailed, err)
	}
	return finish(ctx, s.cfg, nameSequentialAlternatives, req, start, input, value, err, attempts > 1)
}

// runAttempts is the attempt loop of the sequential executors: attempts
// 1..n on the caller's goroutine, attempt k running vs[k-1] (the last of
// vs once k passes its length, which is how Single retries its one
// variant) and validated by test (nil accepts every result the variant
// returns), up to the first accepted one. Every attempt after the first is a retry: it
// pays the retry policy's budget and waits out its backoff when a policy
// is configured, runs rollback (when non-nil) to restore state, and is
// reported as a RetryAttempt. The loop stops early when the request's
// context ends, the budget runs dry or a rollback fails. It returns the
// last attempt's value, how many attempts ran, and nil once one was
// accepted, else the last attempt's failure, wrapped in the cause when
// the loop stopped early.
func runAttempts[I, O any](ctx context.Context, cfg *config, executor string, req uint64, n int, input I, vs []core.Variant[I, O], test core.AcceptanceTest[I, O], rollback func(context.Context) error) (O, int, error) {
	var (
		value O
		err   error
	)
	retrier := cfg.retrier
	if retrier != nil {
		if b := retrier.Budget(); b != nil {
			b.Deposit()
		}
	}
	for k := 1; k <= n; k++ {
		v := vs[min(k, len(vs))-1]
		if cause := ctx.Err(); cause != nil {
			return value, k - 1, stopped(cause, err)
		}
		if k > 1 {
			if retrier != nil {
				if b := retrier.Budget(); b != nil && !b.Withdraw() {
					return value, k - 1, stopped(resilience.ErrRetryBudgetExhausted, err)
				}
				if cause := retrier.Pause(ctx, k); cause != nil {
					return value, k - 1, stopped(cause, err)
				}
			}
			o := cfg.observer
			if rollback != nil {
				if o != nil && req != 0 {
					o.Rollback(executor, req)
				}
				if rbErr := rollback(ctx); rbErr != nil {
					return value, k - 1, fmt.Errorf("rollback before alternate %s: %w", v.Name(), rbErr)
				}
			}
			if o != nil && req != 0 {
				o.RetryAttempt(executor, v.Name(), req, k)
			}
		}
		r := runVariant(ctx, cfg, executor, req, v, input)
		value, err = r.Value, r.Err
		if err == nil && test != nil {
			err = test(input, r.Value)
		}
		if err == nil {
			return value, k, nil
		}
		cfg.logVariantFailure(executor, v.Name(), err)
	}
	return value, n, err
}

// Single runs one variant: with no retry policy it is the non-redundant
// baseline against which experiments compare the redundant patterns;
// NewRetry configures it as the retry technique.
type Single[I, O any] struct {
	cfg     config
	variant core.Variant[I, O]
	// name labels the executor's events: "single", or "retry" when built
	// by NewRetry.
	name string
	// attempts is the total attempt count, the first included.
	attempts int
}

var _ core.Executor[int, int] = (*Single[int, int])(nil)

// NewSingle builds the baseline executor. With a retry policy
// (WithRetryPolicy) the variant is re-executed up to the policy's
// MaxAttempts.
func NewSingle[I, O any](v core.Variant[I, O], opts ...Option) (*Single[I, O], error) {
	if v == nil {
		return nil, core.ErrNoVariants
	}
	cfg := newConfig(opts)
	cfg.bindResilience(nameSingle)
	attempts := 1
	if cfg.retrier != nil {
		attempts = cfg.retrier.MaxAttempts()
	}
	return &Single[I, O]{cfg: cfg, variant: v, name: nameSingle, attempts: attempts}, nil
}

// NewRetry builds the retry technique (the BPEL retry command): v is
// re-executed up to retries times after a failed first attempt, and its
// events carry the executor name "retry". A retry policy
// (WithRetryPolicy) paces the re-executions and charges its budget; its
// MaxAttempts is not consulted, retries fixes the count. With no policy
// re-executions are immediate.
func NewRetry[I, O any](v core.Variant[I, O], retries int, opts ...Option) (*Single[I, O], error) {
	if v == nil {
		return nil, core.ErrNoVariants
	}
	if retries < 0 {
		return nil, errors.New("pattern: negative retries")
	}
	cfg := newConfig(opts)
	cfg.bindResilience(nameRetry)
	if cfg.retrier == nil {
		cfg.retrier = resilience.NewRetrier(resilience.RetryPolicy{})
	}
	return &Single[I, O]{cfg: cfg, variant: v, name: nameRetry, attempts: retries + 1}, nil
}

// Execute implements core.Executor. Attempts beyond the first are paced
// and budgeted by the retry policy — temporal redundancy for the
// baseline executor. A request whose context ends stops before its next
// attempt.
func (s *Single[I, O]) Execute(ctx context.Context, input I) (O, error) {
	ctx, req, start := s.cfg.startRequest(ctx, s.name)
	ctx, adm, admitErr := s.cfg.admit(ctx, s.name, req)
	if admitErr != nil {
		var zero O
		s.cfg.endRequest(s.name, req, start, false, false)
		return zero, admitErr
	}
	defer adm.release()
	value, attempts, err := runAttempts(ctx, &s.cfg, s.name, req, s.attempts, input,
		[]core.Variant[I, O]{s.variant}, nil, nil)
	return finish(ctx, s.cfg, s.name, req, start, input, value, err, err != nil || attempts > 1)
}
