package dist

// Tests of how one attempt is bounded (wireConn.arm/disarm): one
// deadline per attempt, min(caller deadline, CallTimeout from now),
// enforced by the connection's own timer, with cancellation expiring the
// connection early; a connection is pooled only if neither touched it.
// Run with -race -count=5.

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
)

// stallReplica serves a variant that sleeps in microseconds before
// answering 2*in — or, for a negative in, blocks until the test ends.
func stallReplica(t *testing.T, network *PipeNetwork, name string) {
	t.Helper()
	release := make(chan struct{})
	startReplica(t, network, name, core.NewVariant(name, func(_ context.Context, in int) (int, error) {
		if in < 0 {
			<-release
			return 0, errors.New("released")
		}
		time.Sleep(time.Duration(in) * time.Microsecond)
		return 2 * in, nil
	}))
	t.Cleanup(func() { close(release) }) // runs before the server's Close
}

// timed runs one Execute and reports how long it took and its error.
func timed(ctx context.Context, r *Remote[int, int], in int) (time.Duration, error) {
	start := time.Now()
	_, err := r.Execute(ctx, in)
	return time.Since(start), err
}

// TestCallTimeoutBoundsStalledReplicaOnPooledConnection: a background
// caller has no deadline of its own and registers no cancel hook, so
// the connection's timer alone must end an exchange with a stalled
// replica, and the expired connection must not be pooled.
func TestCallTimeoutBoundsStalledReplicaOnPooledConnection(t *testing.T) {
	network := NewPipeNetwork()
	stallReplica(t, network, "r1")
	var tp tap
	const callTimeout = 50 * time.Millisecond
	remote, err := NewRemote[int, int]("stalled", RemoteConfig{CallTimeout: callTimeout},
		Endpoint{Name: "r1", Dial: tp.wrap(network.Dial("r1"))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	if got, err := remote.Execute(ctx, 1); err != nil || got != 2 {
		t.Fatalf("warm-up = %d, %v", got, err)
	}
	if n := idle(remote); n != 1 {
		t.Fatalf("%d idle connections after the warm-up, want 1", n)
	}
	took, err := timed(ctx, remote, -1)
	if err == nil {
		t.Fatal("call to a stalled replica succeeded")
	}
	if took < callTimeout || took > callTimeout+500*time.Millisecond {
		t.Fatalf("call to a stalled replica took %v, want about the %v CallTimeout", took, callTimeout)
	}
	if n := idle(remote); n != 0 {
		t.Fatalf("%d idle connections after a timed-out call, want 0", n)
	}
	if got, err := remote.Execute(ctx, 3); err != nil || got != 6 {
		t.Fatalf("call after the timeout = %d, %v", got, err)
	}
	if dials, _ := tp.snapshot(); dials != 2 {
		t.Fatalf("%d dials, want 2: the expired connection replaced once", dials)
	}
}

// TestCallerDeadlineShorterThanCallTimeoutWins: the attempt's deadline
// is the earlier of the two.
func TestCallerDeadlineShorterThanCallTimeoutWins(t *testing.T) {
	network := NewPipeNetwork()
	stallReplica(t, network, "r1")
	remote, err := NewRemote[int, int]("stalled", RemoteConfig{CallTimeout: 10 * time.Second},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	for _, stage := range []string{"fresh connection", "pooled connection"} {
		if stage == "pooled connection" {
			if got, err := remote.Execute(context.Background(), 1); err != nil || got != 2 {
				t.Fatalf("warm-up = %d, %v", got, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		took, err := timed(ctx, remote, -1)
		cancel()
		if err == nil || took > time.Second {
			t.Fatalf("%s: stalled call under a 50ms caller deadline returned %v after %v", stage, err, took)
		}
		if n := idle(remote); n != 0 {
			t.Fatalf("%s: %d idle connections after the caller's deadline, want 0", stage, n)
		}
	}
}

// TestCancelUnblocksReadInFlight: cancelling the caller's context
// expires the connection under a read that would otherwise wait out a
// long CallTimeout.
func TestCancelUnblocksReadInFlight(t *testing.T) {
	network := NewPipeNetwork()
	stallReplica(t, network, "r1")
	remote, err := NewRemote[int, int]("stalled", RemoteConfig{CallTimeout: 10 * time.Second},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	if got, err := remote.Execute(context.Background(), 1); err != nil || got != 2 {
		t.Fatalf("warm-up = %d, %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(ctx, -1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call block reading the reply
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call still blocked a second later")
	}
	if n := idle(remote); n != 0 {
		t.Fatalf("%d idle connections after a cancelled call, want 0", n)
	}
}

// TestTimerRacingCompletionNeverPoolsExpiredConnection: replies land
// just before or just after the deadline, so the timer races the
// exchange's end. Whatever wins, a pooled connection has never had a
// deadline set, and the next call reuses it and succeeds. A pooled
// connection that had expired would fail that call at once; a call that
// fails only after running for the whole CallTimeout was slowed by a
// loaded machine, and is counted, not failed.
func TestTimerRacingCompletionNeverPoolsExpiredConnection(t *testing.T) {
	const callTimeout = 8 * time.Millisecond
	network := NewPipeNetwork()
	stallReplica(t, network, "r1")
	var tp tap
	remote, err := NewRemote[int, int]("racer", RemoteConfig{CallTimeout: callTimeout},
		Endpoint{Name: "r1", Dial: tp.wrap(network.Dial("r1"))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	pool := remote.view().pools[0]
	ctx := context.Background()
	successes, failures, overruns := 0, 0, 0
	for i := 0; i < 200; i++ {
		// Service times from 6ms to 10ms, around the 8ms deadline.
		stall := 6000 + (i*397)%4000
		if _, err := remote.Execute(ctx, stall); err != nil {
			failures++
			continue
		}
		successes++
		if idle(remote) == 0 {
			continue // the timer fired as the reply landed: dropped, not pooled
		}
		pool.mu.Lock()
		for _, c := range pool.free {
			if d := c.Conn.(*tappedConn).lastDeadline(); !d.IsZero() {
				pool.mu.Unlock()
				t.Fatalf("call %d: pooled connection carries deadline %v", i, d)
			}
		}
		pool.mu.Unlock()
		before, _ := tp.snapshot()
		began := time.Now()
		got, err := remote.Execute(ctx, 0)
		if took := time.Since(began); err != nil && took >= callTimeout {
			overruns++
			t.Logf("call %d: call after a success ran %v, past its %v timeout: %v", i, took, callTimeout, err)
			continue
		} else if err != nil || got != 0 {
			t.Fatalf("call %d: call after a success = %d, %v after %v", i, got, err, took)
		}
		if dials, _ := tp.snapshot(); dials != before {
			t.Fatalf("call %d: call after a success dialed instead of reusing the pooled connection", i)
		}
	}
	if successes == 0 || failures == 0 {
		t.Logf("%d successes, %d failures: the timer did not race completion on this machine", successes, failures)
	}
	if overruns > 0 {
		t.Logf("%d of %d calls after a success overran their timeout on a loaded machine", overruns, successes)
	}
}
