package dist

// Tests of the server's per-connection call context: a context nobody
// watched is restarted for the connection's next call, and one that was
// watched keeps context.WithTimeout's contract — it ends when its call
// returns and stays ended. Run with -race -count=5.

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
)

// How the variant of callContexts treats its context, by input.
const (
	ignore    = iota // never looks at Done
	watchDone        // asks for Done
	derive           // derives a cancelable context from it
)

// servedCall is what the variant saw during one call.
type servedCall struct {
	ctx      context.Context
	err      error     // ctx.Err() during the call
	deadline time.Time // ctx.Deadline() during the call
	prevErr  error     // the previous call's context's Err, during this call
}

// callContexts serves a variant that reports the context of each call
// and returns a function that makes one call and returns that report.
// Every call goes over one connection: the test fails if a second is
// dialled.
func callContexts(t *testing.T) func(how int) servedCall {
	t.Helper()
	network := NewPipeNetwork()
	seen := make(chan servedCall, 1)
	var prev context.Context // touched only by the one connection's handler
	startReplica(t, network, "r1", core.NewVariant("reports", func(ctx context.Context, how int) (int, error) {
		s := servedCall{ctx: ctx, err: ctx.Err()}
		s.deadline, _ = ctx.Deadline()
		if prev != nil {
			s.prevErr = prev.Err()
		}
		prev = ctx
		switch how {
		case watchDone:
			ctx.Done()
		case derive:
			_, cancel := context.WithCancel(ctx)
			defer cancel()
		}
		seen <- s
		return how, nil
	}))
	var dials atomic.Int64
	dial := network.Dial("r1")
	remote, err := NewRemote[int, int]("caller", RemoteConfig{}, Endpoint{Name: "r1", Dial: func(ctx context.Context) (net.Conn, error) {
		dials.Add(1)
		return dial(ctx)
	}})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	t.Cleanup(func() { remote.Close() })
	return func(how int) servedCall {
		t.Helper()
		if _, err := remote.Execute(context.Background(), how); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if n := dials.Load(); n != 1 {
			t.Fatalf("%d dials, want every call on one connection", n)
		}
		return <-seen
	}
}

// endsWithin waits for an unwatched ctx to read Canceled: the server
// ends a call's context after sending its reply, so the caller can get
// the reply first.
func endsWithin(t *testing.T, ctx context.Context, d time.Duration) {
	t.Helper()
	for start := time.Now(); ctx.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Since(start) > d {
			t.Fatal("the call's context did not end after the call returned")
		}
	}
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("the call's context ended with %v, want Canceled", err)
	}
}

// TestCallContextUnwatchedIsReused: a context nobody watched is the
// next call's context too, live again with a later deadline.
func TestCallContextUnwatchedIsReused(t *testing.T) {
	call := callContexts(t)
	first := call(ignore)
	second := call(ignore)
	if second.ctx != first.ctx {
		t.Fatal("an unwatched call context was not reused")
	}
	if first.err != nil || second.err != nil {
		t.Fatalf("Err during the calls = %v, %v, want nil", first.err, second.err)
	}
	if !second.deadline.After(first.deadline) {
		t.Fatalf("the reused context's deadline %v is not after the first call's %v", second.deadline, first.deadline)
	}
	endsWithin(t, second.ctx, 2*time.Second)
}

// TestCallContextWatchedStaysCanceled: a context watched during its
// call, or with a context derived from it, ends with Canceled when the
// call returns and stays Canceled while the connection serves its next
// call, which gets a different, live context.
func TestCallContextWatchedStaysCanceled(t *testing.T) {
	for name, how := range map[string]int{"Done": watchDone, "derived": derive} {
		t.Run(name, func(t *testing.T) {
			call := callContexts(t)
			first := call(how)
			second := call(ignore)
			if second.ctx == first.ctx {
				t.Fatal("a watched call context was reused")
			}
			if second.prevErr != context.Canceled {
				t.Fatalf("the watched context read %v during the next call, want Canceled", second.prevErr)
			}
			if second.err != nil {
				t.Fatalf("the next call's context read %v during its call, want nil", second.err)
			}
			select {
			case <-first.ctx.Done():
			default:
				t.Fatal("the watched context's Done is open after the next call")
			}
			if err := first.ctx.Err(); err != context.Canceled {
				t.Fatalf("the watched context read %v after the next call, want Canceled", err)
			}
		})
	}
}

// TestCallContextArmedAfterReturnIsNotReused: a context nobody watched
// during its call, but watched after it returned, is not reused either.
func TestCallContextArmedAfterReturnIsNotReused(t *testing.T) {
	call := callContexts(t)
	first := call(ignore)
	done := first.ctx.Done()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a context watched after its call returned never closed")
	}
	second := call(ignore)
	if second.ctx == first.ctx {
		t.Fatal("a context watched after its call returned was reused")
	}
	if second.prevErr != context.Canceled || second.err != nil {
		t.Fatalf("during the next call: old context %v, new %v; want Canceled and nil", second.prevErr, second.err)
	}
}

// TestCallContextRetainedReadsAreRaceFree: a goroutine the first call
// left behind keeps reading its context while the connection serves a
// thousand more calls on it; under -race this checks the reads and the
// restarts are ordered. Done, asked at the end, finds the last call's
// end.
func TestCallContextRetainedReadsAreRaceFree(t *testing.T) {
	call := callContexts(t)
	first := call(ignore)
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			first.ctx.Deadline()
			first.ctx.Err()
			first.ctx.Value(nil)
		}
	}()
	for i := 0; i < 1000; i++ {
		s := call(ignore)
		if s.ctx != first.ctx || s.err != nil {
			close(stop)
			t.Fatalf("call %d: reused %v, Err %v; want the first call's context, live", i, s.ctx == first.ctx, s.err)
		}
	}
	close(stop)
	<-read
	select {
	case <-first.ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the retained context never closed")
	}
	if err := first.ctx.Err(); err != context.Canceled {
		t.Fatalf("the retained context read %v, want Canceled", err)
	}
}
