package dist

// Tests of a racing request's recycled state and of the connections'
// workers: a straggler finishing after its request returned must not
// reach the next request to borrow the state, a dial is cut at its
// request's decision, and every worker ends with its connection. Run
// with -race.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// callConcurrently runs calls calls of call, spread over callers
// goroutines, and fails the test with the first error any returns.
func callConcurrently(t *testing.T, callers, calls int, call func(caller, i int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < calls; i += callers {
				if err := call(c, i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRecycledQuorumVerdictsStayWithTheirRequests: r3 replies after
// every verdict, so each request's straggler reports into its results
// channel after Execute has returned and the state may be wanted by the
// next request; r2 lies on one input in seven, so some verdicts wait for
// r3. A late reply landing in another request's ballot would show as a
// verdict that is not its own input's answer.
func TestRecycledQuorumVerdictsStayWithTheirRequests(t *testing.T) {
	network := NewPipeNetwork()
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		switch i {
		case 1:
			return core.NewVariant("liar", func(_ context.Context, x int) (int, error) {
				if x%7 == 0 {
					return 2*x + 1, nil
				}
				return 2 * x, nil
			})
		case 2:
			return sleeper(200 * time.Microsecond)
		}
		return double()
	})
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: 10 * time.Second},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	callConcurrently(t, 4, 2000, func(_, i int) error {
		if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
			return fmt.Errorf("call %d = %d, %v; want %d", i, got, err, 2*i)
		}
		return nil
	})
}

// TestRecycledHedgedAnswersStayWithTheirRequests is the hedged twin:
// the primary stalls on one input in five, so the hedge wins those and
// the primary's late reply arrives after Execute returned.
func TestRecycledHedgedAnswersStayWithTheirRequests(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "primary", core.NewVariant("stalls", func(_ context.Context, x int) (int, error) {
		if x%5 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return 2 * x, nil
	}))
	startReplica(t, network, "secondary", double())
	remote, err := NewRemote[int, int]("hedger", RemoteConfig{CallTimeout: 10 * time.Second, HedgeAfter: 300 * time.Microsecond},
		Endpoint{Name: "primary", Dial: network.Dial("primary")},
		Endpoint{Name: "secondary", Dial: network.Dial("secondary")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	callConcurrently(t, 4, 2000, func(_, i int) error {
		if got, err := remote.Execute(context.Background(), i); err != nil || got != 2*i {
			return fmt.Errorf("call %d = %d, %v; want %d", i, got, err, 2*i)
		}
		return nil
	})
}

// TestDecidedDialIsCutAtTheDecision: r3's dialer blocks until its
// context ends, as a dial into a blackhole does. The dial is bounded by
// the request's decision, so each ends when its request is decided —
// not at the 30 s CallTimeout — and however many requests are decided,
// the dials in flight stay bounded by the callers. Half the callers
// pass a cancelable context, so the decision also registers on the
// caller's.
func TestDecidedDialIsCutAtTheDecision(t *testing.T) {
	network := NewPipeNetwork()
	eps := startQuorumFleet(t, network, 3, func(int) core.Variant[int, int] { return double() })
	var dialling, peak atomic.Int64
	eps[2].Dial = func(ctx context.Context) (net.Conn, error) {
		n := dialling.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		defer dialling.Add(-1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: 30 * time.Second},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	const callers = 4
	ctxs := make([]context.Context, callers)
	for c := range ctxs {
		ctxs[c] = context.Background()
		if c%2 == 1 {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctxs[c] = ctx
		}
	}
	start := time.Now()
	callConcurrently(t, callers, 200, func(c, i int) error {
		if got, err := q.Execute(ctxs[c], i); err != nil || got != 2*i {
			return fmt.Errorf("call %d = %d, %v; want %d", i, got, err, 2*i)
		}
		return nil
	})
	if !waitFor(5*time.Second, func() bool { return dialling.Load() == 0 }) {
		t.Fatalf("%d dials still blocked %v after their requests were decided", dialling.Load(), time.Since(start))
	}
	// Each caller's request in flight, and the one or two before it
	// whose dials have not yet seen their decision (reads 8 on two
	// CPUs); cut at CallTimeout instead, all 200 would pile up.
	if p := peak.Load(); p > 4*callers {
		t.Fatalf("up to %d dials in flight under %d callers, want at most %d", p, callers, 4*callers)
	}
}

// waitFor polls ok until it holds or within has passed, and reports
// whether it held.
func waitFor(within time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(within)
	for !ok() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// workers counts connection workers, parked or running an attempt.
func workers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), ").work(")
}

// hired counts a settled pool's connections that have a worker.
func hired(p *connPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for c := range p.all {
		if c.jobs != nil {
			n++
		}
	}
	return n
}

// TestNoLeakWorkers: a connection's worker ends when the connection
// leaves its pool, whichever way it leaves — its endpoint removed, the
// connection dropped after a failed exchange, or the client closed.
func TestNoLeakWorkers(t *testing.T) {
	t.Cleanup(leakCheck(t)) // last, after the servers are closed
	network := NewPipeNetwork()
	var servers []*Server[int, int]
	eps := make([]Endpoint, 4)
	for i := range eps {
		name := fmt.Sprintf("r%d", i+1)
		servers = append(servers, startReplica(t, network, name, double()))
		eps[i] = Endpoint{Name: name, Dial: network.Dial(name)}
	}
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: 10 * time.Second},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	pools := q.r.view().pools
	// Every call waits for its stragglers, so each endpoint keeps one
	// idle connection, and from the second call on it has a worker.
	call := func(i int) {
		t.Helper()
		if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("call %d = %d, %v", i, got, err)
		}
		for _, p := range pools {
			if !waitPool(p, 2*time.Second, settled) {
				t.Fatal("a straggler never finished")
			}
		}
	}
	for i := 0; i < 10; i++ {
		call(i)
	}
	waitWorkers := func(want func(int) bool, what string) {
		t.Helper()
		if !waitFor(2*time.Second, func() bool { return want(workers()) }) {
			t.Fatalf("%d workers %s", workers(), what)
		}
	}
	waitWorkers(func(n int) bool { return n >= len(pools) }, "after warm calls, want one per endpoint at least")

	before := workers()
	r4 := hired(pools[3])
	if err := q.RemoveEndpoint("r4"); err != nil {
		t.Fatalf("RemoveEndpoint: %v", err)
	}
	waitWorkers(func(n int) bool { return n == before-r4 }, fmt.Sprintf("after r4's %d workers' connections left with it, want %d", r4, before-r4))

	before = workers()
	r3 := hired(pools[2])
	servers[2].Close() // r3's connections fail their next exchange
	for i := 10; i < 14; i++ {
		if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("call %d = %d, %v", i, got, err)
		}
	}
	if !waitPool(pools[2], 2*time.Second, func(_, tracked int) bool { return tracked == 0 }) {
		t.Fatal("r3's connections outlived their server")
	}
	waitWorkers(func(n int) bool { return n == before-r3 }, fmt.Sprintf("after r3's %d workers' connections were dropped, want %d", r3, before-r3))

	q.Close()
	waitWorkers(func(n int) bool { return n == 0 }, "after Close, want 0")
}
