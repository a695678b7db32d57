package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// losers are abandoned: each finishes its exchange in the background
	// and keeps its connection. Zero disables hedging; failover to the next
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

// maxIdleConns bounds each endpoint's idle connections. A straggler
// finishing its exchange after the request that abandoned it hands its
// connection back while the next requests already hold others, so a
// busy pool briefly needs a connection or two beyond the one in use;
// a cap of 2 would close that surplus only to redial it soon after. A
// larger cap keeps more connections in rotation, each with its own
// buffers and gob state, and costs CPU on a quorum's 4 KiB values.
const maxIdleConns = 4

// maxStragglers bounds how many abandoned attempts per endpoint keep
// reading beyond one per racing request (see roundTrip): past it the
// request's decision cuts an attempt off instead. A replica that stalls
// 50 ms on one input in fifty, hedged at 10 ms, has about ten losers
// reading at once under two callers; a replica that never answers
// holds at most this many connections more than its callers do.
const maxStragglers = 16

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
// result wins, losers are abandoned).
//
// The same launch/settle loop serves Quorum: there the verdict rule is a
// vote over every endpoint's reply instead of the first acceptable one.
type Remote[I, O any] struct {
	name string
	kind string // "remote", or "quorum" under a Quorum, for errors
	cfg  RemoteConfig
	ids  atomic.Uint64 // RPC envelope IDs
	// eps is the live endpoint-set snapshot; mu serializes its
	// copy-on-write mutations (see transport.go).
	mu     sync.Mutex
	eps    atomic.Pointer[epSet]
	closed atomic.Bool
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
	// rule is the quorum verdict rule NewQuorum installs; nil means the
	// first acceptable reply wins.
	rule *quorumRule[O]
	// racing counts the racing requests in flight; it bounds how many
	// connections abandoned attempts may hold (see roundTrip).
	racing atomic.Int64
	// racers is the recycler of racing requests' state (see racer): a
	// stack, so any goroutine's release feeds the next borrow. (A
	// sync.Pool keeps a released racer in the releasing P's private
	// slot, where a borrow on another P misses it: a straggler's worker
	// usually releases last.)
	racersMu sync.Mutex
	racers   []*racer[I, O]
	// in and out carry the input and output values on the wire.
	in  valueCodec[I]
	out valueCodec[O]
}

var _ core.Variant[int, int] = (*Remote[int, int])(nil)

// NewRemote builds a remote variant over one or more endpoints.
func NewRemote[I, O any](name string, cfg RemoteConfig, endpoints ...Endpoint) (*Remote[I, O], error) {
	return newRemote[I, O]("remote", name, cfg, endpoints)
}

// newRemote builds the fan-out client under NewRemote and NewQuorum
// after validating the endpoint set (every endpoint named and dialable,
// names unique); kind ("remote", "quorum") names the flavor in errors.
func newRemote[I, O any](kind, name string, cfg RemoteConfig, endpoints []Endpoint) (*Remote[I, O], error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("dist: %s %q: %w", kind, name, core.ErrNoVariants)
	}
	r := &Remote[I, O]{name: name, kind: kind, traced: obs.WantsTrace(cfg.Observer), in: codecFor[I](), out: codecFor[O]()}
	seen := make(map[string]bool, len(endpoints))
	pools := make([]*connPool, len(endpoints))
	for i, ep := range endpoints {
		if err := r.validateEndpoint(ep); err != nil {
			return nil, err
		}
		if seen[ep.Name] {
			return nil, fmt.Errorf("dist: %s %q: duplicate endpoint %q", kind, name, ep.Name)
		}
		seen[ep.Name] = true
		pools[i] = newConnPool()
	}
	r.eps.Store(newEpSet(append([]Endpoint(nil), endpoints...), pools))
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	if cfg.MaxHedges <= 0 {
		cfg.MaxHedges = len(endpoints) - 1
	}
	if cfg.Breakers != nil {
		cfg.Breakers.Bind("remote:"+name, cfg.Observer)
	}
	r.cfg = cfg
	r.hedgeAfter.Store(int64(cfg.HedgeAfter))
	return r, nil
}

// Name implements core.Variant.
func (r *Remote[I, O]) Name() string { return r.name }

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

// RemoveEndpoint takes an endpoint out of the live set and cancels any
// straggler still blocked on it (its connection pool is closed). The
// last endpoint cannot be removed — a Remote with no endpoints could
// serve nothing.
func (r *Remote[I, O]) RemoveEndpoint(name string) error { return r.removeEndpoint(name, 1) }

// Endpoints returns the current endpoint names in configured order.
func (r *Remote[I, O]) Endpoints() []string { return r.view().names() }

// attempt is one claimed slot of a request's fan-out: the endpoint next
// in ranked order, admitted by its breaker and about to be tried.
type attempt struct {
	n   int // 1-based launch order
	ep  int // index into the captured endpoint view
	tc  obs.TraceContext
	brk *resilience.Breaker
	tok resilience.Token
	// conn is the idle connection a racing launch took for the attempt
	// and handed to its worker; nil when the attempt gets one from the
	// pool itself (see roundTrip).
	conn *wireConn
}

// attemptRecord is one launched attempt's lineage as the observer will
// receive it, plus when it was launched and whether it has settled.
type attemptRecord struct {
	obs.RPCAttempt
	launched time.Time
	settled  bool
}

// attemptResult is one finished (or breaker-rejected) attempt.
type attemptResult[O any] struct {
	value   O
	err     error
	attempt int // 1-based launch order
	ep      int // index into the captured endpoint view
	latency time.Duration
}

// Execute implements core.Variant: the failure-detector-routed,
// breaker-guarded RPC fan-out. Attempts are launched in ranked order and
// settled one by one under the verdict rule — the first acceptable
// result, or with a quorum rule the adjudicated vote — and once the
// request is decided Execute returns without waiting for the rest. An
// attempt not yet on the wire does not start; one already on the wire
// finishes its exchange in the background and returns its connection to
// the pool. Only the caller's cancellation or the attempt deadline
// expires a connection (its deadline is pushed into the past, so blocked
// I/O returns) and drops it — or the decision itself, for an attempt
// whose endpoint already has maxStragglers abandoned calls outstanding
// (see roundTrip).
//
// With hedging off and no quorum at most one attempt is ever in flight,
// so the attempts run one after another on the caller's goroutine. A
// request that may race attempts borrows recycled state from the Remote
// (see racer) and hands each attempt to the long-lived worker of the
// idle connection it takes, so on a warm pool its fan-out allocates
// nothing either: no goroutine, channel, timer or cancelable context
// per request. Only a launch that finds no idle connection starts a
// goroutine, to dial.
//
// With an observer attached the fan-out is one observed request: a
// RequestStart/RequestEnd span under the client's name, an Adjudicated
// verdict (a settled attempt that failed or lost counts as a detected
// and, on success, masked fault), and — when the observer records
// traces — a span bound via RequestTraced plus one RPCAttempted lineage
// record per attempt, including losers and cancelled stragglers. Each
// attempt's envelope carries a per-attempt child span so the replica
// server's request span joins the same causal trace.
func (r *Remote[I, O]) Execute(ctx context.Context, input I) (O, error) {
	if r.closed.Load() {
		var zero O
		return zero, ErrClientClosed
	}
	if hedgeAfter := time.Duration(r.hedgeAfter.Load()); hedgeAfter > 0 || r.rule != nil {
		return r.borrow(ctx, input).race(hedgeAfter)
	}
	f := r.newFanout(ctx, input)
	return f.sequential(ctx)
}

// fanout is the state of one Execute call: the captured endpoint view
// and routing order, the observed request, the per-attempt records, and
// under a quorum rule the ballot. Only the goroutine running Execute
// writes it; the workers running a racing request's attempts get their
// attempt by value, read the request's fixed fields (endpoint view,
// input, observer) and report through the racer's results channel.
type fanout[I, O any] struct {
	r *Remote[I, O]
	// One immutable endpoint view per request: a controller splicing
	// endpoints mid-flight changes the next request, not this one.
	v        *epSet
	order    []int
	input    I
	launched int
	lastErr  error
	// racing is set by race before its first launch: attempts run on
	// their own goroutines and may be abandoned when the request is
	// decided without them.
	racing bool
	// The observed request: o is nil when unobserved (req and start are
	// then zero). rtc is a fresh child span when this client records
	// traces, or the inherited context passed through verbatim when only
	// an upstream executor records them; each attempt derives its own
	// child span of it for the wire.
	o     obs.Observer
	req   uint64
	start time.Time
	rtc   obs.TraceContext
	// Per-attempt records in launch order (attempt i went to endpoint
	// order[i]), kept when an observer (the lineage) or an ejector (the
	// censored samples of abandoned losers) will read them.
	records []attemptRecord
	// The ballot under a quorum rule: one slate slot per endpoint, pending
	// ones standing in as failures so the vote denominator is always n,
	// and how many replies must settle before the first adjudication.
	slate   []core.Result[O]
	replies int
	need    int
	// ranked and class are rank's scratch, kept across the requests a
	// recycled racer serves.
	ranked, class []int
}

func (r *Remote[I, O]) newFanout(ctx context.Context, input I) fanout[I, O] {
	var f fanout[I, O]
	f.open(r, ctx, input)
	return f
}

// open starts a request on f, which holds nothing of an earlier one but
// its scratch: it captures the endpoint view, ranks it, opens the
// observed request and, under a quorum rule, the ballot.
func (f *fanout[I, O]) open(r *Remote[I, O], ctx context.Context, input I) {
	f.r, f.v, f.input, f.o = r, r.view(), input, r.cfg.Observer
	f.rank()
	if f.o != nil {
		f.req = obs.NextRequestID()
		f.o.RequestStart(r.name, f.req)
		f.start = time.Now()
	}
	parent, hasParent := obs.TraceContextFrom(ctx)
	if r.traced {
		if hasParent {
			f.rtc = parent.Child()
		} else {
			f.rtc = obs.NewTraceContext()
		}
		obs.EmitRequestTraced(f.o, r.name, f.req, f.rtc)
	} else if hasParent {
		f.rtc = parent
	}
	if r.rule != nil {
		f.openBallot()
	}
}

// sequential tries the endpoints in ranked order, one at a time, until
// one answers: failure-triggered failover with nothing to race.
func (f *fanout[I, O]) sequential(ctx context.Context) (O, error) {
	for f.launched < len(f.order) {
		a, err := f.launch()
		res := attemptResult[O]{err: err, attempt: a.n, ep: a.ep}
		if err == nil {
			res = f.run(ctx, ctx, a)
		}
		if value, done := f.settle(res); done {
			return value, nil
		}
		if err := ctx.Err(); err != nil {
			return f.fail(err)
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
	if f.rtc.Valid() {
		a.tc = f.rtc.Child()
	}
	if f.o != nil || f.r.cfg.Ejector != nil {
		f.records = append(f.records, attemptRecord{
			RPCAttempt: obs.RPCAttempt{Endpoint: endpoint, Span: a.tc, Attempt: a.n},
			launched:   time.Now(),
		})
	}
	if f.r.cfg.Breakers != nil {
		a.brk = f.r.cfg.Breakers.For(endpoint)
		var err error
		if a.tok, err = a.brk.Allow(); err != nil {
			return a, err
		}
	}
	if a.n > 1 && f.o != nil && f.r.rule == nil {
		obs.Emit(f.o, obs.HedgeLaunched(f.r.name, endpoint, f.req, a.n))
	}
	return a, nil
}

// run performs a launched attempt's round trip and reports its outcome
// to the observer and the endpoint's breaker — for a loser that finished
// its exchange after the request was decided, the exchange's own
// outcome, so a clean late reply counts as a success. A loser the
// decision cut off instead (its endpoint crowded, see roundTrip) counts
// as a failure: that endpoint is leaving calls unanswered. An attempt
// the decision stopped before it was sent (errDecided) never reached
// its endpoint and counts as nothing — unless it holds the half-open
// breaker's probe, which must be settled one way or the other. It
// reads but never writes the fanout, so racing attempts may run it
// concurrently, also after the request has returned.
func (f *fanout[I, O]) run(ctx, live context.Context, a attempt) attemptResult[O] {
	start := time.Now()
	value, err := f.roundTrip(ctx, live, a)
	latency := time.Since(start)
	if f.o != nil {
		obs.Emit(f.o, obs.RPCCompleted(f.r.name, f.v.endpoints[a.ep].Name, f.req, latency, err))
	}
	if a.brk != nil && (!errors.Is(err, errDecided) || a.tok.Probe()) {
		a.brk.Record(a.tok, err)
	}
	return attemptResult[O]{value: value, err: err, attempt: a.n, ep: a.ep, latency: latency}
}

// settle folds a finished attempt into the request and reports whether
// it decided the request, and with what answer: under first-acceptable-
// wins the attempt's own value when it succeeded, under a quorum rule
// the adjudicated verdict once there is one. A decided request is closed
// for the observer.
func (f *fanout[I, O]) settle(res attemptResult[O]) (O, bool) {
	i, ej := res.attempt-1, f.r.cfg.Ejector
	if f.records != nil {
		rec := &f.records[i]
		rec.settled, rec.Latency, rec.Err = true, res.latency, res.err
	}
	if ej != nil && res.err == nil {
		ej.Observe(f.v.endpoints[res.ep].Name, res.latency)
	}
	if f.r.rule != nil {
		return f.vote(res)
	}
	if res.err != nil {
		f.lastErr = res.err
		var zero O
		return zero, false
	}
	if f.records != nil {
		f.records[i].Won = true
	}
	if f.o != nil {
		obs.Emit(f.o, obs.HedgeWon(f.r.name, f.v.endpoints[res.ep].Name, f.req, res.attempt))
	}
	if ej != nil {
		// The abandoned losers feed their elapsed time as censored
		// (at-least-this-slow) samples; those launched before the winner
		// were overtaken by it.
		for j, rec := range f.records {
			if !rec.settled {
				ej.ObserveCensored(rec.Endpoint, time.Since(rec.launched), j < i)
			}
		}
	}
	f.finish(nil)
	return res.value, true
}

// fail closes the observed request with no winner.
func (f *fanout[I, O]) fail(err error) (O, error) {
	var zero O
	f.finish(err)
	return zero, err
}

// exhausted is fail for a request whose attempts all settled undecided.
func (f *fanout[I, O]) exhausted() (O, error) {
	if f.r.rule != nil {
		return f.fail(f.noVerdict())
	}
	return f.fail(fmt.Errorf("remote %s: %w: %w", f.r.name, core.ErrAllVariantsFailed, f.lastErr))
}

// finish closes the observed request: it flushes the attempt lineage
// (the verdict rule has marked the winners; attempts not yet settled are
// the cancelled losers, timed from their launch), reports the
// adjudication verdict, and ends the request span. A settled loser — a
// failed round trip, or on success a reply that did not win — is a
// detected (and, when err is nil, masked) fault. The lineage must be
// emitted before RequestEnd: after it a recorder has already committed
// the trace.
func (f *fanout[I, O]) finish(err error) {
	if f.o == nil {
		return
	}
	name := f.r.name
	failureDetected := false
	for i := range f.records {
		rec := &f.records[i]
		if !rec.settled {
			rec.Cancelled = true
			rec.Latency = time.Since(rec.launched)
		} else if rec.Err != nil || (err == nil && !rec.Won) {
			failureDetected = true
		}
		obs.EmitRPCAttempted(f.o, name, f.req, rec.RPCAttempt)
	}
	f.o.Adjudicated(name, f.req, err == nil, failureDetected)
	outcome := obs.OutcomeSuccess
	switch {
	case err != nil:
		outcome = obs.OutcomeFailed
	case failureDetected:
		outcome = obs.OutcomeMasked
	}
	f.o.RequestEnd(name, f.req, time.Since(f.start), outcome)
}

// rank sets the request's endpoint order: indexes into the captured
// view, ranked for this request. The failure detector supplies the
// liveness class (alive before suspect before dead); the ejector then
// sinks ejected latency outliers below everything else — unless this
// decision grants one of them a trickle probe, which is promoted to
// primary — and finally picks the primary among the leading equal-class
// endpoints by power of two choices over the latency EWMAs. Without a
// detector or ejector the configured order stands, and the view's
// shared slice is used: the fan-out only reads its order. Otherwise the
// order is built in f's scratch.
func (f *fanout[I, O]) rank() {
	v := f.v
	det, ej := f.r.cfg.Detector, f.r.cfg.Ejector
	if det == nil && ej == nil {
		f.order = v.configured
		return
	}
	order := append(f.ranked[:0], v.configured...)
	class := append(f.class[:0], make([]int, len(order))...)
	f.ranked, f.class, f.order = order, class, order
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
	// A stable insertion sort by class: a handful of endpoints, and no
	// allocation.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && class[order[j]] < class[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
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
}
