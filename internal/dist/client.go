package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/resilience"
)

// Endpoint is one dialable replica address.
type Endpoint struct {
	// Name identifies the endpoint in observation events, breaker state,
	// and failure-detector membership. Required, unique per Remote.
	Name string
	// Dial opens a connection to the replica.
	Dial DialFunc
}

// RemoteConfig parameterizes a Remote variant. The zero value selects
// the documented defaults.
type RemoteConfig struct {
	// CallTimeout is the per-endpoint deadline bounding one RPC attempt
	// end to end (dial, send, receive). Default 1s.
	CallTimeout time.Duration
	// HedgeAfter enables hedged requests: when an attempt has not
	// answered within this duration, the request is fanned out to the
	// next-best endpoint without canceling the first — the classic
	// tail-latency defense. The first acceptable result wins and the
	// losers are canceled. Zero disables hedging; failover to the next
	// endpoint then happens only on failure.
	HedgeAfter time.Duration
	// MaxHedges caps how many extra attempts the hedge timer may launch
	// beyond the primary. Zero means "up to every configured endpoint".
	// (Failure-triggered failover is not capped: a finished attempt holds
	// no resources, so moving on costs nothing.)
	MaxHedges int
	// Breakers, if non-nil, gives each endpoint a circuit breaker:
	// endpoints whose breaker is open are skipped without dialing, and
	// every attempt outcome feeds the endpoint's breaker.
	Breakers *resilience.Breakers
	// Detector, if non-nil, ranks endpoints by liveness before each
	// request: alive before suspect before dead, so routing avoids
	// replicas that stopped acknowledging heartbeats.
	Detector *Detector
	// Ejector, if non-nil, adds the gray-failure defenses to routing:
	// every attempt outcome feeds the endpoint's latency EWMA, ejected
	// latency outliers are routed around (except for trickle probes),
	// and the primary among equally-live endpoints is picked by power
	// of two choices on the EWMAs instead of configured order.
	Ejector *Ejector
	// Observer receives RPCCompleted/HedgeLaunched/HedgeWon events under
	// the Remote's name; nil observes nothing.
	Observer obs.Observer
}

// defaultCallTimeout backstops configs that leave CallTimeout zero.
const defaultCallTimeout = time.Second

// ErrClientClosed reports a call on a closed Remote.
var ErrClientClosed = errors.New("dist: remote client closed")

// maxIdleConns bounds each endpoint's connection pool.
const maxIdleConns = 2

// Remote is a core.Variant whose Execute happens on the other side of
// the network: the input travels to a replica server as a framed RPC and
// the replica's result (or failure) travels back. Because it satisfies
// core.Variant, a Remote plugs unchanged into all four pattern
// executors — parallel evaluation, parallel selection, sequential
// alternatives, and Single — which is exactly the paper's process-
// replicas pattern with the replica boundary made real.
//
// A Remote with several endpoints is one logical replica service with
// failover: endpoints are tried in failure-detector order, a failed
// attempt falls through to the next endpoint, and with HedgeAfter set a
// slow attempt is raced against the next endpoint (first acceptable
// result wins, losers are canceled).
type Remote[I, O any] struct {
	tp  *transport
	cfg RemoteConfig
	// hedgeAfter is the live hedge delay in nanoseconds. It starts as
	// cfg.HedgeAfter and is retunable at runtime (SetHedgeAfter) by the
	// autonomic controller; Execute loads it once per request, so a
	// concurrent retune can never tear a fan-out already in flight.
	hedgeAfter atomic.Int64
	// traced caches obs.WantsTrace(cfg.Observer): span derivation and
	// lineage recording happen only when an attached observer records
	// traces (the envelope still forwards an inherited trace regardless,
	// so a traced caller's context reaches the replica server).
	traced bool
}

var _ core.Variant[int, int] = (*Remote[int, int])(nil)

// NewRemote builds a remote variant over one or more endpoints.
func NewRemote[I, O any](name string, cfg RemoteConfig, endpoints ...Endpoint) (*Remote[I, O], error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("dist: remote %q: %w", name, core.ErrNoVariants)
	}
	tp, err := newTransport("remote", name, cfg.CallTimeout, endpoints)
	if err != nil {
		return nil, err
	}
	cfg.CallTimeout = tp.callTimeout
	if cfg.MaxHedges <= 0 {
		cfg.MaxHedges = len(endpoints) - 1
	}
	if cfg.Breakers != nil {
		cfg.Breakers.Bind("remote:"+name, cfg.Observer)
	}
	r := &Remote[I, O]{
		tp: tp, cfg: cfg,
		traced: obs.WantsTrace(cfg.Observer),
	}
	r.hedgeAfter.Store(int64(cfg.HedgeAfter))
	return r, nil
}

// Name implements core.Variant.
func (r *Remote[I, O]) Name() string { return r.tp.name }

// Close releases every pooled and in-flight connection; blocked calls
// unblock with a connection error. Idempotent.
func (r *Remote[I, O]) Close() error {
	r.tp.close()
	return nil
}

// HedgeAfter returns the live hedge delay (zero when hedging is off).
func (r *Remote[I, O]) HedgeAfter() time.Duration {
	return time.Duration(r.hedgeAfter.Load())
}

// SetHedgeAfter retunes the hedge delay at runtime; zero or negative
// disables hedging. Requests already in flight keep the delay they
// started with — the store is atomic, so a racing Execute sees either
// the old delay or the new one, never a torn mix.
func (r *Remote[I, O]) SetHedgeAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.hedgeAfter.Store(int64(d))
}

// AddEndpoint splices a new endpoint into the live set. Requests
// already fanned out keep the endpoint view they captured; the next
// Execute sees the grown set.
func (r *Remote[I, O]) AddEndpoint(ep Endpoint) error { return r.tp.add(ep) }

// RemoveEndpoint takes an endpoint out of the live set and cancels any
// straggler still blocked on it (its connection pool is closed). The
// last endpoint cannot be removed — a Remote with no endpoints could
// serve nothing.
func (r *Remote[I, O]) RemoveEndpoint(name string) error { return r.tp.remove(name, 1) }

// Endpoints returns the current endpoint names in configured order.
func (r *Remote[I, O]) Endpoints() []string { return r.tp.view().names() }

// attempt is one claimed slot of a request's fan-out: the endpoint next
// in ranked order, admitted by its breaker and about to be tried.
type attempt struct {
	n   int // 1-based launch order
	ep  int // index into the captured endpoint view
	tc  obs.TraceContext
	brk *resilience.Breaker
	tok resilience.Token
}

// attemptResult is one finished (or breaker-rejected) attempt.
type attemptResult[O any] struct {
	value   O
	err     error
	attempt int // 1-based launch order
	ep      int // index into the captured endpoint view
	latency time.Duration
}

// Execute implements core.Variant: the hedged, failure-detector-routed,
// breaker-guarded RPC fan-out. The first acceptable result wins; every
// other in-flight attempt is canceled promptly (its connection deadline
// is smashed, so blocked reads return).
//
// With hedging off at most one attempt is ever in flight, so the
// attempts run one after another on the caller's goroutine; only a
// request that may race attempts pays for goroutines, a results channel
// and a cancelable context.
//
// With an observer attached the fan-out is one observed request: a
// RequestStart/RequestEnd span under the Remote's name, an Adjudicated
// verdict (a hedge or failover that masked an attempt failure counts as
// a detected-and-masked fault), and — when the observer records traces —
// a span bound via RequestTraced plus one RPCAttempted lineage record
// per attempt, including losers and cancelled hedges. Each attempt's
// envelope carries a per-attempt child span so the replica server's
// request span joins the same causal trace.
func (r *Remote[I, O]) Execute(ctx context.Context, input I) (O, error) {
	if r.tp.closed.Load() {
		var zero O
		return zero, ErrClientClosed
	}
	// Two fanout variables, because the hedged one is shared with attempt
	// goroutines and so lives on the heap; the sequential one need not.
	if hedgeAfter := time.Duration(r.hedgeAfter.Load()); hedgeAfter > 0 {
		f := r.newFanout(ctx, input)
		return f.hedged(ctx, hedgeAfter)
	}
	f := r.newFanout(ctx, input)
	return f.sequential(ctx)
}

// fanout is the state of one Execute call: the captured endpoint view
// and routing order, the observed request, and the per-attempt records.
// Only the goroutine running Execute touches it; attempt goroutines of
// a hedged request get their attempt by value and report through the
// results channel.
type fanout[I, O any] struct {
	r *Remote[I, O]
	// One immutable endpoint view per request: a controller splicing
	// endpoints mid-flight changes the next request, not this one.
	v        *epSet
	order    []int
	input    I
	oreq     observedRequest
	launched int
	lastErr  error
	// Per-attempt lineage, kept only with an observer, so the records
	// can be emitted before the request span closes.
	lineage  []obs.RPCAttempt
	launches []time.Time
	settled  []bool
	// Per-attempt ejector bookkeeping, independent of the observer: a
	// completed attempt feeds its measured latency, and when another
	// attempt wins the race, the abandoned losers feed their elapsed
	// time as censored (at-least-this-slow) samples.
	ejEndpoints []string
	ejLaunches  []time.Time
	ejSettled   []bool
}

func (r *Remote[I, O]) newFanout(ctx context.Context, input I) fanout[I, O] {
	v := r.tp.view()
	return fanout[I, O]{
		r: r, v: v, order: r.ordered(v), input: input,
		oreq: r.tp.observe(ctx, r.cfg.Observer, r.traced),
	}
}

// sequential tries the endpoints in ranked order, one at a time, until
// one answers: failure-triggered failover with nothing to race.
func (f *fanout[I, O]) sequential(ctx context.Context) (O, error) {
	for f.launched < len(f.order) {
		a, err := f.launch()
		res := attemptResult[O]{err: err, attempt: a.n, ep: a.ep}
		if err == nil {
			res = f.run(ctx, a)
		}
		if f.settle(res) {
			return res.value, nil
		}
		if err := ctx.Err(); err != nil {
			return f.fail(err)
		}
	}
	return f.exhausted()
}

// hedged races attempts: the hedge timer launches the next endpoint
// when the in-flight ones are slow, a failure with nothing else in
// flight launches it at once, and the first success cancels the rest.
func (f *fanout[I, O]) hedged(ctx context.Context, hedgeAfter time.Duration) (O, error) {
	maxHedges := f.r.cfg.MaxHedges
	if maxHedges > len(f.order)-1 {
		maxHedges = len(f.order) - 1
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// Sized to the number of sends: one per endpoint at most.
	results := make(chan attemptResult[O], len(f.order))
	pending := 0
	// launchNext starts the next attempt in ranked order. Breaker-open
	// endpoints complete instantly as failed attempts (without dialing),
	// so the loop below immediately moves past them.
	launchNext := func() {
		if f.launched >= len(f.order) {
			return
		}
		a, err := f.launch()
		pending++
		if err != nil {
			results <- attemptResult[O]{err: err, attempt: a.n, ep: a.ep}
			return
		}
		go func() { results <- f.run(ctx, a) }()
	}
	launchNext()

	// The timer is armed only while spare endpoints and hedge budget
	// remain.
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	timerC, hedges := timer.C, 0
	for pending > 0 {
		select {
		case <-timerC:
			if hedges < maxHedges && f.launched < len(f.order) {
				hedges++
				launchNext()
			}
			if hedges < maxHedges && f.launched < len(f.order) {
				timer.Reset(hedgeAfter)
			} else {
				timerC = nil
			}
		case res := <-results:
			pending--
			if f.settle(res) {
				cancelAll()
				return res.value, nil
			}
			if pending == 0 && ctx.Err() == nil {
				launchNext() // failure-triggered failover, uncapped
			}
		case <-ctx.Done():
			return f.fail(ctx.Err())
		}
	}
	return f.exhausted()
}

// launch claims the next endpoint in ranked order and records the
// attempt. A non-nil error is the endpoint's breaker refusing it: the
// attempt is already over, failed, without dialing.
func (f *fanout[I, O]) launch() (attempt, error) {
	ep := f.order[f.launched]
	f.launched++
	a := attempt{n: f.launched, ep: ep}
	endpoint := f.v.endpoints[ep].Name
	if f.oreq.rtc.Valid() {
		a.tc = f.oreq.rtc.Child()
	}
	if f.oreq.o != nil {
		f.lineage = append(f.lineage, obs.RPCAttempt{Endpoint: endpoint, Span: a.tc, Attempt: a.n})
		f.launches = append(f.launches, time.Now())
		f.settled = append(f.settled, false)
	}
	if f.r.cfg.Ejector != nil {
		f.ejEndpoints = append(f.ejEndpoints, endpoint)
		f.ejLaunches = append(f.ejLaunches, time.Now())
		f.ejSettled = append(f.ejSettled, false)
	}
	if f.r.cfg.Breakers != nil {
		a.brk = f.r.cfg.Breakers.For(endpoint)
		var err error
		if a.tok, err = a.brk.Allow(); err != nil {
			return a, err
		}
	}
	if a.n > 1 && f.oreq.o != nil {
		obs.Emit(f.oreq.o, obs.HedgeLaunched(f.oreq.name, endpoint, f.oreq.req, a.n))
	}
	return a, nil
}

// run performs a launched attempt's round trip and reports its outcome
// to the observer and the endpoint's breaker. It reads but never writes
// the fanout, so hedged attempts may run it concurrently.
func (f *fanout[I, O]) run(ctx context.Context, a attempt) attemptResult[O] {
	start := time.Now()
	value, err := roundTrip[I, O](ctx, f.r.tp, f.v, a.ep, a.tc, f.input)
	latency := time.Since(start)
	if o := f.oreq.o; o != nil {
		obs.Emit(o, obs.RPCCompleted(f.oreq.name, f.v.endpoints[a.ep].Name, f.oreq.req, latency, err))
	}
	if a.brk != nil {
		a.brk.Record(a.tok, err)
	}
	return attemptResult[O]{value: value, err: err, attempt: a.n, ep: a.ep, latency: latency}
}

// settle records a finished attempt and reports whether it won; a
// winner closes the observed request, and its value is the answer.
func (f *fanout[I, O]) settle(res attemptResult[O]) bool {
	o, ej, i := f.oreq.o, f.r.cfg.Ejector, res.attempt-1
	if o != nil {
		f.lineage[i].Latency = res.latency
		f.lineage[i].Err = res.err
		f.settled[i] = true
	}
	if ej != nil {
		f.ejSettled[i] = true
		if res.err == nil {
			ej.Observe(f.ejEndpoints[i], res.latency)
		}
	}
	if res.err != nil {
		f.lastErr = res.err
		return false
	}
	if o != nil {
		obs.Emit(o, obs.HedgeWon(f.oreq.name, f.v.endpoints[res.ep].Name, f.oreq.req, res.attempt))
		f.lineage[i].Won = true
	}
	if ej != nil {
		for j := range f.ejSettled {
			if !f.ejSettled[j] {
				ej.ObserveCensored(f.ejEndpoints[j], time.Since(f.ejLaunches[j]))
			}
		}
	}
	f.oreq.finish(f.lineage, f.launches, f.settled, nil)
	return true
}

// fail closes the observed request with no winner.
func (f *fanout[I, O]) fail(err error) (O, error) {
	var zero O
	f.oreq.finish(f.lineage, f.launches, f.settled, err)
	return zero, err
}

// exhausted is fail for a request that ran out of endpoints.
func (f *fanout[I, O]) exhausted() (O, error) {
	return f.fail(fmt.Errorf("remote %s: %w: %w", f.oreq.name, core.ErrAllVariantsFailed, f.lastErr))
}

// ordered returns endpoint indexes (into the captured view) ranked for
// this request. The failure detector supplies the liveness class
// (alive before suspect before dead); the ejector then sinks ejected
// latency outliers below everything else — unless this decision grants
// one of them a trickle probe, which is promoted to primary — and
// finally picks the primary among the leading equal-class endpoints by
// power of two choices over the latency EWMAs. Without a detector or
// ejector the configured order stands, and the view's shared slice is
// returned: callers only read the result.
func (r *Remote[I, O]) ordered(v *epSet) []int {
	det, ej := r.cfg.Detector, r.cfg.Ejector
	if det == nil && ej == nil {
		return v.configured
	}
	order := append([]int(nil), v.configured...)
	class := make([]int, len(order))
	if det != nil {
		for i := range order {
			class[i] = int(det.State(v.endpoints[i].Name))
		}
	}
	probe := -1
	epName := func(i int) string { return v.endpoints[i].Name }
	if ej != nil {
		probe = ej.route(len(order), epName, class)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return class[order[a]] < class[order[b]]
	})
	if probe >= 0 {
		// The probe leads; everyone else keeps rank order behind it, so
		// a hedge rescues the request if the probed endpoint is still
		// slow.
		for pos, epi := range order {
			if epi == probe {
				copy(order[1:pos+1], order[:pos])
				order[0] = probe
				break
			}
		}
	} else if ej != nil {
		ej.p2cFront(order, class, epName)
	}
	return order
}
