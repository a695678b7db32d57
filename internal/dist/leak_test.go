package dist

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
)

// leakCheck fails the test if goroutines grew across it. The retry loop
// gives exiting goroutines a moment to die; the +2 slack tolerates the
// runtime's own background workers.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	}
}

// TestNoLeakAcceptLoopShutdown: closing a server (directly and via
// context cancellation) must terminate the accept loop and every
// connection handler, including handlers mid-read on an idle connection.
func TestNoLeakAcceptLoopShutdown(t *testing.T) {
	check := leakCheck(t)
	network := NewPipeNetwork()

	// Server closed via Close, with a live idle connection parked in a
	// handler's readFrame.
	ln, err := network.Listen("r1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := NewServer(double(), ln, ServerConfig{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	conn, err := network.Dial("r1")(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // let the handler park in readFrame
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve after Close: %v, want nil (clean shutdown)", err)
	}
	conn.Close()

	// Server stopped via context cancellation.
	ln2, err := network.Listen("r2")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv2 := NewServer(double(), ln2, ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ctx) }()
	cancel()
	if err := <-done2; err != nil {
		t.Fatalf("Serve after cancel: %v, want nil", err)
	}
	check()
}

// TestNoLeakHedgeCancellation: after the first acceptable result wins, the
// losing hedged attempts — parked in blocking reads on a replica that
// never answers — must be canceled and their goroutines must exit.
func TestNoLeakHedgeCancellation(t *testing.T) {
	check := leakCheck(t)
	network := NewPipeNetwork()
	never := make(chan struct{})
	defer close(never)
	// The stuck replica honors cancellation but otherwise never answers;
	// the server's shutdown cancellation is what reaps its handlers.
	stuck := startReplica(t, network, "stuck", core.NewVariant("stuck",
		func(ctx context.Context, x int) (int, error) {
			select {
			case <-never:
			case <-ctx.Done():
			}
			return 0, ctx.Err()
		}))
	fast := startReplica(t, network, "fast", double())
	remote, err := NewRemote[int, int]("hedger", RemoteConfig{
		CallTimeout: 10 * time.Second,
		HedgeAfter:  5 * time.Millisecond,
	},
		Endpoint{Name: "stuck", Dial: network.Dial("stuck")},
		Endpoint{Name: "fast", Dial: network.Dial("fast")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	for i := 0; i < 5; i++ {
		if got, err := remote.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("hedged Execute %d: got %d, %v", i, got, err)
		}
	}
	remote.Close()
	stuck.Close() // must cancel the in-flight stuck calls, not wait them out
	fast.Close()
	check()
}

// TestNoLeakExpiredConnections: connections that ended every way an
// attempt can end — pooled after a clean exchange, expired by the
// caller's deadline, expired by cancellation under a long CallTimeout —
// are all collectable after Close. A connection whose timer were left
// armed would stay pinned by it until the CallTimeout ran out.
func TestNoLeakExpiredConnections(t *testing.T) {
	t.Cleanup(leakCheck(t)) // last, after the stalled replica is released
	network := NewPipeNetwork()
	stallReplica(t, network, "r1")
	var tp tap
	var collected atomic.Int32
	dial := func(ctx context.Context) (net.Conn, error) {
		c, err := tp.wrap(network.Dial("r1"))(ctx)
		if err == nil {
			runtime.SetFinalizer(c.(*tappedConn), func(*tappedConn) { collected.Add(1) })
		}
		return c, err
	}
	remote, err := NewRemote[int, int]("leaky", RemoteConfig{CallTimeout: time.Minute},
		Endpoint{Name: "r1", Dial: dial})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	if _, err := remote.Execute(context.Background(), 1); err != nil {
		t.Fatalf("clean call: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if _, err := remote.Execute(ctx, -1); err == nil {
		t.Fatal("stalled call under a caller deadline succeeded")
	}
	cancel()
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := remote.Execute(ctx, -1); err == nil {
		t.Fatal("stalled call succeeded after cancellation")
	}
	remote.Close()
	dials, _ := tp.snapshot()
	deadline := time.Now().Add(2 * time.Second)
	for int(collected.Load()) < dials && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if c := int(collected.Load()); c != dials {
		t.Fatalf("%d of %d connections still pinned after Close", dials-c, dials)
	}
}

// TestNoLeakClientCloseDuringPartition: a call blocked on a partitioned
// network (the replica accepted the connection, then went silent forever)
// must unblock when the client is closed, and leave nothing running.
func TestNoLeakClientCloseDuringPartition(t *testing.T) {
	check := leakCheck(t)
	network := NewPipeNetwork()
	// A "partitioned" replica: accepts connections and reads nothing, so
	// the client's write (net.Pipe is synchronous) or read blocks forever.
	ln, err := network.Listen("blackhole")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c // hold the conn open, never read from it
		}
	}()
	defer func() {
		for {
			select {
			case c := <-accepted:
				c.Close()
			default:
				return
			}
		}
	}()
	remote, err := NewRemote[int, int]("marooned", RemoteConfig{
		CallTimeout: 10 * time.Second, // the test must not ride on this timeout
	}, Endpoint{Name: "blackhole", Dial: network.Dial("blackhole")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	execDone := make(chan error, 1)
	go func() {
		_, err := remote.Execute(context.Background(), 1)
		execDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call block in the partition
	remote.Close()
	select {
	case err := <-execDone:
		if err == nil {
			t.Fatal("Execute during partition succeeded after Close")
		}
		if errors.Is(err, ErrClientClosed) {
			break // closed before the attempt started: also fine
		}
		if !errors.Is(err, core.ErrAllVariantsFailed) {
			t.Fatalf("Execute unblocked with %v, want a failure chain", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Execute still blocked 3s after client Close during partition")
	}
	if _, err := remote.Execute(context.Background(), 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Execute after Close: %v, want ErrClientClosed", err)
	}
	check()
}
