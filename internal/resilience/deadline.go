package resilience

import (
	"context"
	"sync"
	"time"
)

// DeadlinePolicy bounds execution time so that a hung variant (the
// faultmodel FailHang manifestation) can never wedge an executor even
// when the caller forgot a context deadline. Both bounds are optional;
// a tighter deadline inherited from the request context always wins
// (context.WithTimeout keeps the sooner of parent and child deadlines).
type DeadlinePolicy struct {
	// Request bounds one whole Execute call: variant executions,
	// queueing at the bulkhead, and adjudication.
	Request time.Duration
	// Variant is the default per-variant deadline, used when the
	// executor has no explicit per-variant timeout configured
	// (pattern.WithVariantTimeout takes precedence).
	Variant time.Duration
}

// VariantDeadline resolves the effective per-variant deadline given an
// explicitly configured timeout (zero means none).
func (p DeadlinePolicy) VariantDeadline(explicit time.Duration) time.Duration {
	if explicit > 0 {
		return explicit
	}
	return p.Variant
}

// Zero reports whether the policy imposes no bound at all.
func (p DeadlinePolicy) Zero() bool { return p.Request <= 0 && p.Variant <= 0 }

// DeadlineSource is what every DeadlineContext started under one parent
// shares: the parent, whose end (or deadline) ends them all, and the
// parent without its cancellation, which answers Value. A server makes
// one per serving context and starts a DeadlineContext per call.
type DeadlineSource struct {
	ctx    context.Context
	values context.Context
}

// NewDeadlineSource returns the source of lazy deadline contexts under
// parent.
func NewDeadlineSource(parent context.Context) *DeadlineSource {
	s := new(DeadlineSource)
	s.init(parent)
	return s
}

func (s *DeadlineSource) init(parent context.Context) {
	s.ctx, s.values = parent, parent
	if parent.Done() != nil {
		s.values = context.WithoutCancel(parent)
	}
}

// Start returns a context bounded by timeout under the source's parent.
// The caller must End it.
func (s *DeadlineSource) Start(timeout time.Duration) *DeadlineContext {
	c := new(DeadlineContext)
	s.start(c, timeout)
	return c
}

func (s *DeadlineSource) start(c *DeadlineContext, timeout time.Duration) {
	d := time.Now().Add(timeout)
	if pd, ok := s.ctx.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	c.src, c.deadline = s, d
}

// WithLazyTimeout returns a context bounded by timeout under parent: a
// DeadlineContext and its source in one allocation, for a parent that
// bounds a single context. The caller must End it.
func WithLazyTimeout(parent context.Context, timeout time.Duration) *DeadlineContext {
	p := new(struct {
		src DeadlineSource
		ctx DeadlineContext
	})
	p.src.init(parent)
	p.src.start(&p.ctx, timeout)
	return &p.ctx
}

// DeadlineContext is what context.WithTimeout(parent, timeout) would
// return, built lazily. It ends with DeadlineExceeded at its deadline,
// with the parent's error when the parent ends, and with Canceled on
// End. Until something asks for Done it is one object and nothing else:
// no channel, no runtime timer, no registration on the parent — Err
// works those out from the clock and the parent when asked. The first
// Done (or AfterFunc) makes the channel, arms the timer and registers
// on the parent, so a variant that watches Done, and anything derived
// from the context, sees it close on time. The context package's
// derived contexts register through its AfterFunc method, so deriving
// one starts no goroutine.
//
// Value goes to the parent with its cancellation hidden
// (context.WithoutCancel), so context.Cause and derived contexts treat
// a DeadlineContext as the end of the cancellation chain and ask its
// Err. Unlike WithTimeout's, its Cause is therefore always its Err,
// also when the parent was cancelled with a cause; a caller that needs
// the parent's cause keeps context.WithTimeout.
type DeadlineContext struct {
	src      *DeadlineSource
	deadline time.Time

	mu    sync.Mutex
	err   error
	armed *armed // made by the first Done or AfterFunc
}

// armed is what a DeadlineContext makes when it is first watched.
type armed struct {
	done chan struct{}
	// timer and stop (the registration on the parent, nil when the
	// parent cannot end) are set when the context is armed before it
	// ends, and disarmed when it ends.
	timer *time.Timer
	stop  func() bool
	// afters are the AfterFunc callbacks still to run when it ends.
	afters []*func()
}

func (c *DeadlineContext) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *DeadlineContext) Value(key any) any { return c.src.values.Value(key) }

func (c *DeadlineContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arm().done
}

func (c *DeadlineContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if err := c.expired(); err != nil {
			c.cancelLocked(err)
		}
	}
	return c.err
}

// AfterFunc arranges for f to run in its own goroutine once the context
// ends, as context.AfterFunc does; stop unregisters f and reports
// whether that kept it from running. context.AfterFunc and the context
// package's derived contexts call it instead of starting a goroutine to
// wait on Done.
func (c *DeadlineContext) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.arm()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	e := &f
	a.afters = append(a.afters, e)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, x := range a.afters {
			if x == e {
				a.afters = append(a.afters[:i], a.afters[i+1:]...)
				return true
			}
		}
		return false
	}
}

// End cancels the context, like the CancelFunc of context.WithTimeout.
func (c *DeadlineContext) End() { c.cancel(context.Canceled) }

// arm makes the context's channel and, unless it has ended, its timer
// and its registration on the parent. c.mu is held.
func (c *DeadlineContext) arm() *armed {
	if c.armed != nil {
		return c.armed
	}
	a := &armed{done: make(chan struct{})}
	c.armed = a
	if c.err == nil {
		c.err = c.expired()
	}
	if c.err != nil {
		close(a.done)
		return a
	}
	a.timer = time.AfterFunc(time.Until(c.deadline), func() { c.cancel(context.DeadlineExceeded) })
	if parent := c.src.ctx; parent.Done() != nil {
		a.stop = context.AfterFunc(parent, func() { c.cancel(parent.Err()) })
	}
	return a
}

// expired returns why the context has ended on its own, if it has: its
// deadline passed, or its parent ended.
func (c *DeadlineContext) expired() error {
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return c.src.ctx.Err()
}

func (c *DeadlineContext) cancel(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancelLocked(err)
}

// cancelLocked ends the context with err, unless it has ended already.
func (c *DeadlineContext) cancelLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	a := c.armed
	if a == nil {
		return
	}
	close(a.done)
	if a.timer != nil {
		a.timer.Stop()
	}
	if a.stop != nil {
		a.stop()
	}
	for _, f := range a.afters {
		go (*f)()
	}
	a.afters = nil
}
