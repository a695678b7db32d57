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

// attemptResult is one finished (or breaker-rejected) attempt.
type attemptResult[O any] struct {
	value   O
	err     error
	attempt int // 1-based launch order
	ep      int // index into the detector-ranked order
	latency time.Duration
}

// Execute implements core.Variant: the hedged, failure-detector-routed,
// breaker-guarded RPC fan-out. The first acceptable result wins; every
// other in-flight attempt is canceled promptly (its connection deadline
// is smashed, so blocked reads return).
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
	var zero O
	if r.tp.closed.Load() {
		return zero, ErrClientClosed
	}
	// One immutable endpoint view per request: a controller splicing
	// endpoints mid-flight changes the next request, not this one.
	v := r.tp.view()
	order := r.ordered(v)
	hedgeAfter := time.Duration(r.hedgeAfter.Load())
	maxHedges := r.cfg.MaxHedges
	if maxHedges > len(order)-1 {
		maxHedges = len(order) - 1
	}
	oreq := r.tp.observe(ctx, r.cfg.Observer, r.traced)
	o, name, req, rtc := oreq.o, oreq.name, oreq.req, oreq.rtc
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan attemptResult[O], len(order))
	launched, pending := 0, 0
	// Per-attempt lineage, maintained by the Execute goroutine only (the
	// attempt goroutines report through the results channel), so the
	// records can be emitted before the request span closes.
	var (
		lineage  []obs.RPCAttempt
		launches []time.Time
		settled  []bool
	)
	// Per-attempt ejector bookkeeping, independent of the observer: a
	// completed attempt feeds its measured latency, and when another
	// attempt wins the race, the abandoned losers feed their elapsed
	// time as censored (at-least-this-slow) samples.
	ej := r.cfg.Ejector
	var (
		ejEndpoints []string
		ejLaunches  []time.Time
		ejSettled   []bool
	)
	// launchNext starts the next attempt in ranked order. Breaker-open
	// endpoints complete instantly as failed attempts (without dialing),
	// so the loop below immediately moves past them.
	launchNext := func() {
		if launched >= len(order) {
			return
		}
		ep := order[launched]
		launched++
		attempt := launched
		var atc obs.TraceContext
		if rtc.Valid() {
			atc = rtc.Child()
		}
		if o != nil {
			lineage = append(lineage, obs.RPCAttempt{
				Endpoint: v.endpoints[ep].Name, Span: atc, Attempt: attempt,
			})
			launches = append(launches, time.Now())
			settled = append(settled, false)
		}
		if ej != nil {
			ejEndpoints = append(ejEndpoints, v.endpoints[ep].Name)
			ejLaunches = append(ejLaunches, time.Now())
			ejSettled = append(ejSettled, false)
		}
		var (
			brk *resilience.Breaker
			tok resilience.Token
		)
		if r.cfg.Breakers != nil {
			brk = r.cfg.Breakers.For(v.endpoints[ep].Name)
			var err error
			if tok, err = brk.Allow(); err != nil {
				pending++
				results <- attemptResult[O]{err: err, attempt: attempt, ep: ep}
				return
			}
		}
		if attempt > 1 && o != nil {
			obs.Emit(o, obs.HedgeLaunched(name, v.endpoints[ep].Name, req, attempt))
		}
		pending++
		go func() {
			start := time.Now()
			value, err := roundTrip[I, O](ctx, r.tp, v, ep, atc, input)
			latency := time.Since(start)
			if o != nil {
				obs.Emit(o, obs.RPCCompleted(name, v.endpoints[ep].Name, req, latency, err))
			}
			if brk != nil {
				brk.Record(tok, err)
			}
			results <- attemptResult[O]{value: value, err: err, attempt: attempt, ep: ep, latency: latency}
		}()
	}
	// finish closes the observed request; winner is the 1-based attempt
	// whose result is returned, 0 for none.
	finish := func(winner int, err error) {
		if o != nil && winner > 0 {
			lineage[winner-1].Won = true
		}
		oreq.finish(lineage, launches, settled, err)
	}
	launchNext()

	// The hedge timer launches the next attempt when the in-flight ones
	// are slow; it is armed only while hedging is enabled and spare
	// endpoints and hedge budget remain.
	var (
		timer   *time.Timer
		timerC  <-chan time.Time
		hedges  int
		lastErr error
	)
	if hedgeAfter > 0 {
		timer = time.NewTimer(hedgeAfter)
		timerC = timer.C
		defer timer.Stop()
	}
	for pending > 0 {
		select {
		case <-timerC:
			if hedges < maxHedges && launched < len(order) {
				hedges++
				launchNext()
			}
			if hedges < maxHedges && launched < len(order) {
				timer.Reset(hedgeAfter)
			} else {
				timerC = nil
			}
		case res := <-results:
			pending--
			if o != nil {
				lineage[res.attempt-1].Latency = res.latency
				lineage[res.attempt-1].Err = res.err
				settled[res.attempt-1] = true
			}
			if ej != nil {
				ejSettled[res.attempt-1] = true
				if res.err == nil {
					ej.Observe(ejEndpoints[res.attempt-1], res.latency)
				}
			}
			if res.err == nil {
				if o != nil {
					obs.Emit(o, obs.HedgeWon(name, v.endpoints[res.ep].Name, req, res.attempt))
				}
				if ej != nil {
					for i := range ejSettled {
						if !ejSettled[i] {
							ej.ObserveCensored(ejEndpoints[i], time.Since(ejLaunches[i]))
						}
					}
				}
				finish(res.attempt, nil)
				cancelAll()
				return res.value, nil
			}
			lastErr = res.err
			if pending == 0 {
				if launched < len(order) && ctx.Err() == nil {
					launchNext() // failure-triggered failover, uncapped
				}
			}
		case <-ctx.Done():
			finish(0, ctx.Err())
			return zero, ctx.Err()
		}
	}
	err := fmt.Errorf("remote %s: %w: %w", name, core.ErrAllVariantsFailed, lastErr)
	finish(0, err)
	return zero, err
}

// ordered returns endpoint indexes (into the captured view) ranked for
// this request. The failure detector supplies the liveness class
// (alive before suspect before dead); the ejector then sinks ejected
// latency outliers below everything else — unless this decision grants
// one of them a trickle probe, which is promoted to primary — and
// finally picks the primary among the leading equal-class endpoints by
// power of two choices over the latency EWMAs. Without a detector or
// ejector the configured order stands.
func (r *Remote[I, O]) ordered(v *epSet) []int {
	order := make([]int, len(v.endpoints))
	for i := range order {
		order[i] = i
	}
	det, ej := r.cfg.Detector, r.cfg.Ejector
	if det == nil && ej == nil {
		return order
	}
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
