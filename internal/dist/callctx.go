package dist

import (
	"context"
	"sync"
	"time"
)

// callBase is what every call served under one Serve loop shares: the
// serving context, whose cancellation at shutdown ends every call; the
// same context without its cancellation, which answers Value; and its
// deadline, if it has one.
type callBase struct {
	ctx         context.Context
	values      context.Context
	deadline    time.Time
	hasDeadline bool
}

func newCallBase(ctx context.Context) *callBase {
	b := &callBase{ctx: ctx, values: context.WithoutCancel(ctx)}
	b.deadline, b.hasDeadline = ctx.Deadline()
	return b
}

// callContext is the context one served call runs under: what
// context.WithTimeout(base.ctx, timeout) would return, built lazily. It
// ends with DeadlineExceeded at its deadline, with the serving
// context's error at shutdown, and with Canceled when the call returns
// (end). Until something asks for Done it is one object and nothing
// else: no channel, no runtime timer, no registration on the serving
// context — Err works those out from the clock and the serving context
// when asked. The first Done makes the channel, arms the timer and
// registers on the serving context, so a variant that watches Done,
// and anything derived from the context, sees it close on time.
//
// Value goes to the serving context with its cancellation hidden
// (context.WithoutCancel), so context.Cause and derived contexts treat
// a callContext as the end of the cancellation chain and ask its Err.
// Unlike WithTimeout's, its Cause is therefore always its Err, also
// when the context handed to Serve was cancelled with a cause.
type callContext struct {
	base     *callBase
	deadline time.Time

	mu   sync.Mutex
	done chan struct{} // made by the first Done
	err  error
	// timer and stop are armed by the first Done before the context
	// ends, and disarmed when it ends.
	timer *time.Timer
	stop  func() bool
}

// call starts the context of a call bounded by timeout.
func (b *callBase) call(timeout time.Duration) *callContext {
	d := time.Now().Add(timeout)
	if b.hasDeadline && b.deadline.Before(d) {
		d = b.deadline
	}
	return &callContext{base: b, deadline: d}
}

func (c *callContext) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *callContext) Value(key any) any { return c.base.values.Value(key) }

func (c *callContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return c.done
	}
	c.done = make(chan struct{})
	if c.err == nil {
		c.err = c.expired()
	}
	if c.err != nil {
		close(c.done)
		return c.done
	}
	c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.cancel(context.DeadlineExceeded) })
	c.stop = context.AfterFunc(c.base.ctx, func() { c.cancel(c.base.ctx.Err()) })
	return c.done
}

func (c *callContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if err := c.expired(); err != nil {
			c.cancelLocked(err)
		}
	}
	return c.err
}

// expired returns why the context has ended on its own, if it has: its
// deadline passed, or the server is shutting down.
func (c *callContext) expired() error {
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return c.base.ctx.Err()
}

// end cancels the context: the call has returned.
func (c *callContext) end() { c.cancel(context.Canceled) }

func (c *callContext) cancel(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancelLocked(err)
}

// cancelLocked ends the context with err, unless it has ended already.
func (c *callContext) cancelLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.done != nil {
		close(c.done)
	}
	if c.timer != nil {
		c.timer.Stop()
		c.stop()
	}
}
