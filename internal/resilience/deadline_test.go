package resilience

// Tests of the lazy deadline context against the contract it replaces:
// every check runs on a context.WithTimeout over the same parent too,
// so an expectation that WithTimeout does not meet is a bug in the
// test, and one that only DeadlineContext misses is a bug in
// DeadlineContext. Run with -race -count=5.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// subject is one context under test and the call return that ends it.
type subject struct {
	name string
	ctx  context.Context
	end  func()
}

// kinds names the two contexts every check runs on.
var kinds = []string{"WithTimeout", "DeadlineContext"}

// newSubject returns a context of the named kind bounded by timeout
// under parent.
func newSubject(kind string, parent context.Context, timeout time.Duration) subject {
	if kind == "WithTimeout" {
		ctx, cancel := context.WithTimeout(parent, timeout)
		return subject{kind, ctx, cancel}
	}
	cc := NewDeadlineSource(parent).Start(timeout)
	return subject{kind, cc, cc.End}
}

// subjects returns one context of each kind under parent.
func subjects(parent context.Context, timeout time.Duration) []subject {
	var out []subject
	for _, kind := range kinds {
		out = append(out, newSubject(kind, parent, timeout))
	}
	return out
}

// watching runs f on each kind of context, each under its own serving
// context from parent, twice: once with Done asked for before anything
// happens (a variant that watches its context), once without.
func watching(t *testing.T, parent func() (context.Context, func()), timeout time.Duration, f func(t *testing.T, s subject, cancelParent func())) {
	for _, watched := range []bool{false, true} {
		for _, kind := range kinds {
			name := kind + "/unwatched"
			if watched {
				name = kind + "/watched"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancelParent := parent()
				defer cancelParent()
				s := newSubject(kind, ctx, timeout)
				defer s.end()
				if watched {
					s.ctx.Done()
				}
				f(t, s, cancelParent)
			})
		}
	}
}

func background() (context.Context, func()) { return context.WithCancel(context.Background()) }

// closedWithin reports whether ch closes within d.
func closedWithin(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// isClosed reports whether ch is closed now.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// checkEnded checks a context that has ended with want: Err, Done and
// Cause all agree.
func checkEnded(t *testing.T, ctx context.Context, want error) {
	t.Helper()
	if !closedWithin(ctx.Done(), 2*time.Second) {
		t.Fatalf("Done still open; Err = %v", ctx.Err())
	}
	if err := ctx.Err(); err != want {
		t.Fatalf("Err = %v, want %v", err, want)
	}
	if err := context.Cause(ctx); err != want {
		t.Fatalf("Cause = %v, want %v", err, want)
	}
}

func TestDeadlineContextDeadline(t *testing.T) {
	const timeout = time.Hour
	watching(t, background, timeout, func(t *testing.T, s subject, _ func()) {
		before := time.Now()
		d, ok := s.ctx.Deadline()
		if !ok || d.Before(before.Add(timeout-time.Minute)) || d.After(before.Add(timeout)) {
			t.Fatalf("Deadline = %v, %v; want about an hour from now", d, ok)
		}
	})
	// A serving context with an earlier deadline bounds the call instead.
	parentDeadline := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), parentDeadline)
	defer cancel()
	for _, s := range subjects(ctx, timeout) {
		if d, ok := s.ctx.Deadline(); !ok || !d.Equal(parentDeadline) {
			t.Errorf("%s: Deadline = %v, %v; want the serving context's %v", s.name, d, ok, parentDeadline)
		}
		s.end()
	}
}

func TestDeadlineContextErrNilUntilEnded(t *testing.T) {
	watching(t, background, time.Hour, func(t *testing.T, s subject, _ func()) {
		if err := s.ctx.Err(); err != nil {
			t.Fatalf("Err of a live call = %v", err)
		}
		if err := context.Cause(s.ctx); err != nil {
			t.Fatalf("Cause of a live call = %v", err)
		}
		if isClosed(s.ctx.Done()) {
			t.Fatal("Done of a live call is closed")
		}
	})
}

func TestDeadlineContextExpiresAtDeadline(t *testing.T) {
	const timeout = 10 * time.Millisecond
	watching(t, background, timeout, func(t *testing.T, s subject, _ func()) {
		start := time.Now()
		checkEnded(t, s.ctx, context.DeadlineExceeded)
		if elapsed := time.Since(start); elapsed < timeout/2 {
			t.Fatalf("ended after %v, before its %v deadline", elapsed, timeout)
		}
		s.end() // a call returning after its deadline keeps the deadline's error
		checkEnded(t, s.ctx, context.DeadlineExceeded)
	})
	// Err alone, never Done: the deadline still shows.
	for _, s := range subjects(context.Background(), timeout) {
		time.Sleep(2 * timeout)
		if err := s.ctx.Err(); err != context.DeadlineExceeded {
			t.Errorf("%s: Err past the deadline = %v, want DeadlineExceeded", s.name, err)
		}
		s.end()
	}
}

func TestDeadlineContextCancelledWhenCallReturns(t *testing.T) {
	watching(t, background, time.Hour, func(t *testing.T, s subject, _ func()) {
		s.end()
		checkEnded(t, s.ctx, context.Canceled)
		s.end() // idempotent
		checkEnded(t, s.ctx, context.Canceled)
	})
}

func TestDeadlineContextShutdown(t *testing.T) {
	watching(t, background, time.Hour, func(t *testing.T, s subject, cancelParent func()) {
		cancelParent()
		checkEnded(t, s.ctx, context.Canceled)
		s.end()
		checkEnded(t, s.ctx, context.Canceled)
	})
	// A serving context already shut down when the call starts.
	ctx, cancel := background()
	cancel()
	for _, s := range subjects(ctx, time.Hour) {
		if err := s.ctx.Err(); err != context.Canceled {
			t.Errorf("%s: Err under a cancelled serving context = %v, want Canceled", s.name, err)
		}
		s.end()
	}
}

type ctxKey struct{}

func TestDeadlineContextValues(t *testing.T) {
	withValue := func() (context.Context, func()) {
		return context.WithCancel(context.WithValue(context.Background(), ctxKey{}, "v"))
	}
	watching(t, withValue, time.Hour, func(t *testing.T, s subject, _ func()) {
		if got := s.ctx.Value(ctxKey{}); got != "v" {
			t.Fatalf("Value = %v, want the serving context's v", got)
		}
		if got := s.ctx.Value("other"); got != nil {
			t.Fatalf("Value of an unset key = %v", got)
		}
		s.end()
		if got := s.ctx.Value(ctxKey{}); got != "v" {
			t.Fatalf("Value after the call = %v, want v", got)
		}
	})
}

func TestDeadlineContextChildren(t *testing.T) {
	t.Run("at the deadline", func(t *testing.T) {
		watching(t, background, 10*time.Millisecond, func(t *testing.T, s subject, _ func()) {
			child, cancel := context.WithCancel(s.ctx)
			defer cancel()
			checkEnded(t, child, context.DeadlineExceeded)
		})
	})
	for _, ending := range []string{"call returns", "shutdown"} {
		t.Run("when the "+ending, func(t *testing.T) {
			watching(t, background, time.Hour, func(t *testing.T, s subject, cancelParent func()) {
				child, cancel := context.WithCancel(s.ctx)
				defer cancel()
				timed, cancelTimed := context.WithTimeout(s.ctx, time.Hour)
				defer cancelTimed()
				if isClosed(child.Done()) || isClosed(timed.Done()) {
					t.Fatal("a child of a live call has ended")
				}
				if ending == "shutdown" {
					cancelParent()
				} else {
					s.end()
				}
				checkEnded(t, child, context.Canceled)
				checkEnded(t, timed, context.Canceled)
			})
		})
	}
	t.Run("own cancellation", func(t *testing.T) {
		watching(t, background, time.Hour, func(t *testing.T, s subject, _ func()) {
			cause := errors.New("child's own cause")
			child, cancel := context.WithCancelCause(s.ctx)
			cancel(cause)
			if err := context.Cause(child); err != cause {
				t.Fatalf("Cause of the child = %v, want its own", err)
			}
			if err := s.ctx.Err(); err != nil {
				t.Fatalf("cancelling a child ended the call: %v", err)
			}
		})
	})
}

func TestDeadlineContextAfterFunc(t *testing.T) {
	for _, ending := range []string{"deadline", "call returns", "shutdown"} {
		t.Run(ending, func(t *testing.T) {
			timeout := time.Hour
			if ending == "deadline" {
				timeout = 10 * time.Millisecond
			}
			watching(t, background, timeout, func(t *testing.T, s subject, cancelParent func()) {
				var fired atomic.Int32
				done := make(chan struct{})
				context.AfterFunc(s.ctx, func() {
					if fired.Add(1) == 1 {
						close(done)
					}
				})
				switch ending {
				case "call returns":
					s.end()
				case "shutdown":
					cancelParent()
				}
				if !closedWithin(done, 2*time.Second) {
					t.Fatal("AfterFunc never ran")
				}
				s.end()
				time.Sleep(time.Millisecond)
				if n := fired.Load(); n != 1 {
					t.Fatalf("AfterFunc ran %d times", n)
				}
			})
		})
	}
	t.Run("stopped", func(t *testing.T) {
		watching(t, background, time.Hour, func(t *testing.T, s subject, _ func()) {
			var fired atomic.Bool
			stop := context.AfterFunc(s.ctx, func() { fired.Store(true) })
			if !stop() {
				t.Fatal("stop of a pending AfterFunc reported false")
			}
			s.end()
			time.Sleep(5 * time.Millisecond)
			if fired.Load() {
				t.Fatal("a stopped AfterFunc ran")
			}
		})
	})
}

// TestDeadlineContextConcurrentWatchers: goroutines the variant left behind
// keep asking Done and Err while the call returns, the deadline passes
// and the server shuts down; whatever they see must be consistent — an
// Err only once Done is closed — and end on the first cause.
func TestDeadlineContextConcurrentWatchers(t *testing.T) {
	for _, ending := range []string{"call returns", "deadline", "shutdown"} {
		t.Run(ending, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				parent, cancelParent := background()
				timeout := time.Duration(i%4) * time.Millisecond
				if ending != "deadline" {
					timeout = time.Hour
				}
				cc := NewDeadlineSource(parent).Start(timeout)
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for {
							var done <-chan struct{}
							if g%2 == 0 {
								done = cc.Done()
							}
							err := cc.Err()
							if done != nil && err == nil && isClosed(done) && cc.Err() == nil {
								t.Error("Done closed with a nil Err")
								return
							}
							if err != nil {
								if !isClosed(cc.Done()) {
									t.Errorf("Err = %v with Done open", err)
								}
								return
							}
						}
					}(g)
				}
				switch ending {
				case "call returns":
					cc.End()
				case "shutdown":
					cancelParent()
				}
				wg.Wait()
				want := map[string]error{"call returns": context.Canceled, "deadline": context.DeadlineExceeded, "shutdown": context.Canceled}[ending]
				cc.End()
				cancelParent()
				if err := cc.Err(); err != want {
					t.Fatalf("Err = %v, want %v", err, want)
				}
			}
		})
	}
}

// TestDeadlineContextIsLazy: a call whose variant never asks for Done costs
// one object — no channel, no timer, no registration on the serving
// context — and Err alone still sees the deadline. WithLazyTimeout, a
// source that serves one context, costs one object too.
func TestDeadlineContextIsLazy(t *testing.T) {
	base := NewDeadlineSource(context.Background())
	cc := base.Start(time.Hour)
	if cc.Err() != nil || cc.armed != nil {
		t.Fatal("Err armed the context")
	}
	cc.End()
	if cc.armed != nil {
		t.Fatal("End armed the context")
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c := base.Start(time.Hour)
		_ = c.Err()
		c.End()
	}); allocs != 1 {
		t.Fatalf("%.0f allocs for an unwatched call context, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c := WithLazyTimeout(context.Background(), time.Hour)
		_ = c.Err()
		c.End()
	}); allocs != 1 {
		t.Fatalf("%.0f allocs for an unwatched WithLazyTimeout, want 1", allocs)
	}
}

// TestDeadlineContextChildrenStartNoGoroutine: a context derived from a
// DeadlineContext registers through its AfterFunc method instead of
// starting a goroutine to wait on Done, still ends at the deadline with
// DeadlineExceeded, and its Cause is its Err.
func TestDeadlineContextChildrenStartNoGoroutine(t *testing.T) {
	const children = 100
	cc := WithLazyTimeout(context.Background(), 20*time.Millisecond)
	defer cc.End()
	before := runtime.NumGoroutine()
	var derived []context.Context
	for i := 0; i < children; i++ {
		child, cancel := context.WithCancel(cc)
		defer cancel()
		derived = append(derived, child)
	}
	if grew := runtime.NumGoroutine() - before; grew >= children/2 {
		t.Fatalf("%d derived contexts started %d goroutines", children, grew)
	}
	for _, child := range derived {
		checkEnded(t, child, context.DeadlineExceeded)
	}
	if err := context.Cause(cc); err != cc.Err() {
		t.Fatalf("Cause = %v, Err = %v", err, cc.Err())
	}
}
