package dist

// The racing half of the fan-out: a hedged Remote or any Quorum runs
// its attempts concurrently. The state of such a request is recycled,
// its decision is a context of its own, and its attempts run on the
// workers of the connections they take (see wireConn.work), so on a
// warm pool a racing request allocates nothing for its fan-out.

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// racer is the state of one racing request: the fan-out, plus what
// racing adds — the caller's context, the results channel the attempts
// report into, the hedge timer, and the request's decision.
//
// A racer is borrowed from its Remote's recycler (Remote.racers) for one
// request and counts its holders: the request's caller is one, and so
// is every attempt handed to a worker and every callback the decision
// runs (see AfterFunc). The last holder to let go drains the results
// channel and returns the racer to the recycler, so an attempt that
// finishes after Execute returned reports into its own request's
// channel, never into the ballot of the next request to borrow it.
//
// The racer is also the decision, as a context.Context: live, to the
// attempts (see roundTrip). It is what context.WithCancel(ctx) would
// return, built lazily in the way of resilience.DeadlineContext: Err
// reads the decided flag, or else the caller's Err; nothing is made
// until something asks for Done, which makes the channel and registers
// on the caller's context; and its AfterFunc method lets
// context.WithDeadline and context.AfterFunc register on it without a
// goroutine. Only the cold paths — a dial bounded by the decision, an
// attempt cut off at it — ask.
type racer[I, O any] struct {
	fanout[I, O]
	ctx     context.Context // the caller's
	refs    atomic.Int32
	results chan attemptResult[O] // room for every attempt's send
	timer   *time.Timer           // the hedge timer, made on first use

	// decided is set once per request, after err: Canceled when the
	// request was decided, the caller's error when its context ended
	// first.
	decided atomic.Bool
	err     error

	mu     sync.Mutex    // guards what follows
	done   chan struct{} // made by the first Done or AfterFunc
	afters []*func()     // AfterFunc callbacks still to run
	stop   func() bool   // the registration on ctx, once made
}

var _ context.Context = (*racer[int, int])(nil)

// borrow takes a racer from the recycler, or makes one, and opens a
// request on it, held by the caller.
func (r *Remote[I, O]) borrow(ctx context.Context, input I) *racer[I, O] {
	var rc *racer[I, O]
	r.racersMu.Lock()
	if n := len(r.racers); n > 0 {
		rc = r.racers[n-1]
		r.racers = r.racers[:n-1]
	}
	r.racersMu.Unlock()
	if rc == nil {
		rc = new(racer[I, O])
	}
	rc.ctx = ctx
	rc.refs.Store(1)
	rc.open(r, ctx, input)
	rc.racing = true
	if n := len(rc.order); cap(rc.results) < n {
		rc.results = make(chan attemptResult[O], n)
	}
	return rc
}

// release lets go of one hold on the racer; the last one recycles it.
// Every attempt's send happened before its holder let go, so the
// results drained here are all there will be.
func (rc *racer[I, O]) release() {
	if rc.refs.Add(-1) != 0 {
		return
	}
	for len(rc.results) > 0 {
		<-rc.results
	}
	r := rc.r
	f := &rc.fanout
	clear(f.slate)
	clear(f.records)
	rc.fanout = fanout[I, O]{ranked: f.ranked, class: f.class, records: f.records[:0], slate: f.slate[:0]}
	// A stale reference — a dialer that kept the context it was given —
	// reads a background context, never the next request's.
	rc.ctx = context.Background()
	rc.err = nil
	rc.decided.Store(false)
	rc.mu.Lock()
	rc.done, rc.afters, rc.stop = nil, nil, nil
	rc.mu.Unlock()
	r.racersMu.Lock()
	r.racers = append(r.racers, rc)
	r.racersMu.Unlock()
}

// race runs the request's attempts concurrently. A quorum launches
// every endpoint at once; otherwise one attempt leads, the hedge timer
// launches the next while the in-flight ones are slow, and a failure
// with nothing else in flight launches it at once. Results settle as
// they arrive, and the one that decides the request ends it: no attempt
// starts after the decision (its worker finds the request decided),
// while the ones already on the wire finish their exchange (see
// roundTrip) and report into the results channel, which has room for
// every send. race releases the caller's hold on rc.
func (rc *racer[I, O]) race(hedgeAfter time.Duration) (O, error) {
	rc.r.racing.Add(1)
	value, err := rc.settleAll(hedgeAfter)
	rc.r.racing.Add(-1)
	rc.decide(cmp.Or(rc.ctx.Err(), context.Canceled))
	rc.release()
	return value, err
}

// settleAll is race's launch/settle loop.
func (rc *racer[I, O]) settleAll(hedgeAfter time.Duration) (O, error) {
	f := &rc.fanout
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
			rc.results <- attemptResult[O]{err: err, attempt: a.n, ep: a.ep}
			return
		}
		rc.dispatch(a)
	}
	launchNext()
	for f.r.rule != nil && f.launched < len(f.order) {
		launchNext()
	}

	// The timer is armed only while spare endpoints and hedge budget
	// remain.
	maxHedges := min(f.r.cfg.MaxHedges, len(f.order)-f.launched)
	var timerC <-chan time.Time
	if hedgeAfter > 0 && maxHedges > 0 {
		if rc.timer == nil {
			rc.timer = time.NewTimer(hedgeAfter)
		} else {
			rc.timer.Reset(hedgeAfter)
		}
		defer rc.timer.Stop()
		timerC = rc.timer.C
	}
	for hedges := 0; pending > 0; {
		select {
		case <-timerC:
			if hedges < maxHedges && f.launched < len(f.order) {
				hedges++
				launchNext()
			}
			if hedges < maxHedges && f.launched < len(f.order) {
				rc.timer.Reset(hedgeAfter)
			} else {
				timerC = nil
			}
		case res := <-rc.results:
			pending--
			if value, done := f.settle(res); done {
				return value, nil
			}
			if pending == 0 && rc.ctx.Err() == nil {
				launchNext() // failure-triggered failover, uncapped
			}
		case <-rc.ctx.Done():
			return f.fail(rc.ctx.Err())
		}
	}
	return f.exhausted()
}

// dispatch hands a launched attempt, and a hold on rc, to a worker: an
// idle connection's, taken from the pool now, or when the pool has none
// a goroutine's, which gets a connection from the pool (dialling one,
// bounded by the decision) and exits once the attempt is over.
func (rc *racer[I, O]) dispatch(a attempt) {
	rc.refs.Add(1)
	if a.conn = rc.v.pools[a.ep].take(); a.conn != nil {
		a.conn.assign(job{rc, a})
		return
	}
	go rc.runAttempt(a)
}

// runAttempt implements attemptRunner.
func (rc *racer[I, O]) runAttempt(a attempt) {
	rc.results <- rc.run(rc.ctx, rc, a)
	rc.release()
}

func (rc *racer[I, O]) Deadline() (time.Time, bool) { return rc.ctx.Deadline() }

func (rc *racer[I, O]) Value(key any) any { return rc.ctx.Value(key) }

func (rc *racer[I, O]) Err() error {
	if rc.decided.Load() {
		return rc.err
	}
	return rc.ctx.Err()
}

func (rc *racer[I, O]) Done() <-chan struct{} {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.watch()
}

// AfterFunc arranges for f to run in its own goroutine once the
// decision is made, as context.AfterFunc does; stop unregisters f and
// reports whether that kept it from running. context.AfterFunc and the
// context package's derived contexts call it instead of starting a
// goroutine to wait on Done. The goroutine holds the racer until f
// returns: f reads the decision, which must not be recycled under it.
func (rc *racer[I, O]) AfterFunc(f func()) (stop func() bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.watch()
	if rc.decided.Load() {
		rc.spawn(f)
		return func() bool { return false }
	}
	e := &f
	rc.afters = append(rc.afters, e)
	return func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		for i, x := range rc.afters {
			if x == e {
				rc.afters = append(rc.afters[:i], rc.afters[i+1:]...)
				return true
			}
		}
		return false
	}
}

// watch makes the decision's channel, once, and unless the request is
// decided already registers on the caller's context, holding the racer,
// so that the caller giving up decides the request too. rc.mu is held.
func (rc *racer[I, O]) watch() chan struct{} {
	if rc.done != nil {
		return rc.done
	}
	rc.done = make(chan struct{})
	if rc.decided.Load() {
		close(rc.done)
		return rc.done
	}
	if parent := rc.ctx; parent.Done() != nil {
		rc.refs.Add(1)
		rc.stop = context.AfterFunc(parent, func() {
			rc.decide(parent.Err())
			rc.release()
		})
	}
	return rc.done
}

// decide makes the decision with err, unless it is made already: Err
// reports err from now on, Done closes, the AfterFunc callbacks start,
// and the registration on the caller's context is undone. The caller
// holds the racer.
func (rc *racer[I, O]) decide(err error) {
	rc.mu.Lock()
	if rc.decided.Load() {
		rc.mu.Unlock()
		return
	}
	rc.err = err
	rc.decided.Store(true)
	if rc.done != nil {
		close(rc.done)
	}
	for _, f := range rc.afters {
		rc.spawn(*f)
	}
	rc.afters = nil
	stop := rc.stop
	rc.stop = nil
	rc.mu.Unlock()
	if stop != nil && stop() {
		rc.release() // the registration's hold
	}
}

// spawn runs f in its own goroutine, holding the racer until f returns.
// The caller holds the racer.
func (rc *racer[I, O]) spawn(f func()) {
	rc.refs.Add(1)
	go func() {
		f()
		rc.release()
	}()
}
