package dist

// Tests of what happens to an attempt its request no longer needs: a
// hedge loser or quorum straggler already on the wire finishes its
// exchange and pools its connection; only the caller's cancellation,
// the attempt deadline, or an endpoint already holding more connections
// than its pool could keep drops it. Run with -race -count=5.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/resilience"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// poolCounts returns how many connections a pool holds idle and how
// many it tracks in all, in flight included.
func poolCounts(p *connPool) (idle, tracked int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free), len(p.all)
}

// waitPool polls p until ok holds for its counts or within has passed,
// and reports whether ok held.
func waitPool(p *connPool, within time.Duration, ok func(idle, tracked int) bool) bool {
	deadline := time.Now().Add(within)
	for {
		if ok(poolCounts(p)) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// settled reports a pool with nothing in flight: every tracked
// connection is idle.
func settled(idle, tracked int) bool { return idle == tracked }

// sleeper answers 2*in after sleeping d.
func sleeper(d time.Duration) core.Variant[int, int] {
	return core.NewVariant("sleeper", func(_ context.Context, in int) (int, error) {
		time.Sleep(d)
		return 2 * in, nil
	})
}

// blocker never answers: it waits until its server shuts down.
func blocker() core.Variant[int, int] {
	return core.NewVariant("blocker", func(ctx context.Context, _ int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
}

// TestQuorumStragglerKeepsItsConnection: the slow replica of a quorum
// answers after every verdict, so each of its replies arrives for an
// attempt its request has abandoned. Its connection must go back to the
// pool for the next request instead of being dropped and redialled, so
// 200 requests cost a handful of dials, not one per request.
func TestQuorumStragglerKeepsItsConnection(t *testing.T) {
	network := NewPipeNetwork()
	var tp tap
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		if i == 2 {
			return sleeper(time.Millisecond)
		}
		return double()
	})
	for i := range eps {
		eps[i].Dial = tp.wrap(eps[i].Dial)
	}
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: 10 * time.Second},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	slow := q.r.view().pools[2]
	const requests = 200
	for i := 0; i < requests; i++ {
		if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("call %d = %d, %v", i, got, err)
		}
		// Give the straggler a moment to land. Past it the next request
		// finds no idle connection and dials: bounded slack, not a failure.
		waitPool(slow, 5*time.Millisecond, func(idle, _ int) bool { return idle > 0 })
	}
	if !waitPool(slow, 2*time.Second, settled) {
		t.Fatal("the slow replica's stragglers never finished")
	}
	bound := len(eps) * (maxIdleConns + 1)
	if dials, _ := tp.snapshot(); dials > bound {
		t.Fatalf("%d requests made %d dials, want at most %d: stragglers dropped their connections", requests, dials, bound)
	}
	if idle, _ := poolCounts(slow); idle == 0 {
		t.Fatal("no connection to the slow replica pooled after its stragglers finished")
	}
}

// TestHedgeLoserLateReplyStaysInStep: the primary's reply arrives after
// the hedge won. The loser reads it to the end, so the connection it
// pools is in step with the replica, and the next call on it gets its
// own answer rather than the stale one.
func TestHedgeLoserLateReplyStaysInStep(t *testing.T) {
	network := NewPipeNetwork()
	stallReplica(t, network, "slow")
	startReplica(t, network, "fast", double())
	var tp tap
	remote, err := NewRemote[int, int]("hedger", RemoteConfig{CallTimeout: 10 * time.Second, HedgeAfter: 5 * time.Millisecond},
		Endpoint{Name: "slow", Dial: tp.wrap(network.Dial("slow"))},
		Endpoint{Name: "fast", Dial: network.Dial("fast")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	// The primary sleeps 30ms, so the hedge to "fast" wins at ~5ms.
	if got, err := remote.Execute(ctx, 30000); err != nil || got != 60000 {
		t.Fatalf("hedged call = %d, %v", got, err)
	}
	slow := remote.view().pools[0]
	if idle, tracked := poolCounts(slow); idle != 0 || tracked != 1 {
		t.Fatalf("right after the win the loser holds %d idle / %d tracked connections, want 0 / 1 (still reading)", idle, tracked)
	}
	if !waitPool(slow, 2*time.Second, func(idle, _ int) bool { return idle == 1 }) {
		t.Fatal("the loser's connection was not pooled after its late reply")
	}
	if got, err := remote.Execute(ctx, 7); err != nil || got != 14 {
		t.Fatalf("call on the salvaged connection = %d, %v; want 14", got, err)
	}
	if dials, _ := tp.snapshot(); dials != 1 {
		t.Fatalf("%d dials to the primary, want 1: the salvaged connection reused", dials)
	}
}

// TestCallerCancelDropsRacingConnections: a racing request cancelled by
// its caller mid-flight returns at once, and every attempt it had on the
// wire expires and drops its connection rather than waiting out the
// long CallTimeout.
func TestCallerCancelDropsRacingConnections(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(eps []Endpoint) (*Remote[int, int], error)
	}{
		{"hedged", func(eps []Endpoint) (*Remote[int, int], error) {
			return NewRemote[int, int]("hedger", RemoteConfig{CallTimeout: 10 * time.Second, HedgeAfter: time.Millisecond}, eps...)
		}},
		{"quorum", func(eps []Endpoint) (*Remote[int, int], error) {
			q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: 10 * time.Second},
				vote.Majority[int](intEq), intEq, eps...)
			if err != nil {
				return nil, err
			}
			return q.r, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			network := NewPipeNetwork()
			eps := startQuorumFleet(t, network, 3, func(int) core.Variant[int, int] { return blocker() })
			r, err := tc.build(eps)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer r.Close()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := r.Execute(ctx, 1)
				done <- err
			}()
			for _, p := range r.view().pools {
				if !waitPool(p, 2*time.Second, func(_, tracked int) bool { return tracked == 1 }) {
					t.Fatal("not every endpoint got an attempt on the wire")
				}
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled request = %v, want context.Canceled", err)
				}
			case <-time.After(time.Second):
				t.Fatal("cancelled request still blocked a second later")
			}
			for i, p := range r.view().pools {
				if !waitPool(p, time.Second, func(idle, tracked int) bool { return idle == 0 && tracked == 0 }) {
					idle, tracked := poolCounts(p)
					t.Fatalf("endpoint %d: %d idle / %d tracked connections after the caller cancelled, want none", i, idle, tracked)
				}
			}
		})
	}
}

// TestStragglerPastDeadlineIsDropped: a straggler whose replica never
// answers is not salvaged forever — the attempt deadline expires its
// connection, which is dropped, never pooled, and the next request
// dials afresh.
func TestStragglerPastDeadlineIsDropped(t *testing.T) {
	network := NewPipeNetwork()
	var tp tap
	// The honest pair takes 2ms, so the stuck replica's call is on the
	// wire before each verdict.
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		if i == 2 {
			return blocker()
		}
		return sleeper(2 * time.Millisecond)
	})
	eps[2].Dial = tp.wrap(eps[2].Dial)
	const callTimeout = 50 * time.Millisecond
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: callTimeout},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	stuck := q.r.view().pools[2]
	for i := 1; i <= 2; i++ {
		start := time.Now()
		if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("call %d = %d, %v", i, got, err)
		}
		if took := time.Since(start); took >= callTimeout {
			t.Fatalf("call %d took %v: the verdict waited for the straggler", i, took)
		}
		if !waitPool(stuck, 2*time.Second, func(_, tracked int) bool { return tracked == 0 }) {
			t.Fatalf("call %d: the straggler outlived its %v deadline", i, callTimeout)
		}
		if idle, _ := poolCounts(stuck); idle != 0 {
			t.Fatalf("call %d: %d expired connections pooled", i, idle)
		}
		if dials, _ := tp.snapshot(); dials != i {
			t.Fatalf("call %d: %d dials to the stuck replica, want %d (one fresh connection per request)", i, dials, i)
		}
	}
}

// salvaging counts goroutines inside an attempt's round trip.
func salvaging() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), ").roundTrip(")
}

// TestNoLeakSalvageAfterClose: stragglers still reading late replies
// when the client closes must exit with it, not with their replicas.
func TestNoLeakSalvageAfterClose(t *testing.T) {
	t.Cleanup(leakCheck(t)) // last, after the servers are closed
	network := NewPipeNetwork()
	// The honest pair takes 2ms, so the blocked replica's call is on the
	// wire before each verdict.
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		if i == 2 {
			return blocker()
		}
		return sleeper(2 * time.Millisecond)
	})
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: time.Minute},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	for i := 0; i < 5; i++ {
		if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("call %d = %d, %v", i, got, err)
		}
	}
	waitSalvaging := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for salvaging() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%d stragglers reading, want %d", salvaging(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSalvaging(5)
	q.Close()
	waitSalvaging(0)
}

// TestHedgeLoserKeepsPrimaryBreakerClosed: a slow but healthy primary
// loses every request to its hedge. Each loser's exchange still ends in
// a clean reply, which its breaker must count as a success — counting
// abandonment as failure would open the breaker of a replica that never
// failed.
func TestHedgeLoserKeepsPrimaryBreakerClosed(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "primary", sleeper(20*time.Millisecond))
	startReplica(t, network, "secondary", double())
	breakers := resilience.NewBreakers(resilience.BreakerConfig{ConsecutiveFailures: 3})
	remote, err := NewRemote[int, int]("hedger", RemoteConfig{HedgeAfter: 2 * time.Millisecond, Breakers: breakers},
		Endpoint{Name: "primary", Dial: network.Dial("primary")},
		Endpoint{Name: "secondary", Dial: network.Dial("secondary")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	for i := 0; i < 6; i++ {
		if got, err := remote.Execute(context.Background(), i); err != nil || got != 2*i {
			t.Fatalf("call %d = %d, %v", i, got, err)
		}
	}
	if !waitPool(remote.view().pools[0], 2*time.Second, settled) {
		t.Fatal("the primary's losers never finished")
	}
	b := breakers.For("primary")
	if state := b.State(); state != obs.BreakerClosed || b.Opens() != 0 {
		t.Fatalf("healthy primary's breaker is %v after %d opens, want closed and never opened", state, b.Opens())
	}
}

// TestDecidedRefusalLeavesBreakerAlone: an attempt refused its
// connection because its request was decided first never reached its
// endpoint, so its breaker records nothing — not even one tripping on a
// single failure. A half-open breaker's probe is still settled, so the
// probe slot is not held forever.
func TestDecidedRefusalLeavesBreakerAlone(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	breakers := resilience.NewBreakers(resilience.BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             time.Second,
		Now:                 func() time.Time { return time.Unix(0, now.Load()) },
	})
	remote, err := NewRemote[int, int]("decided", RemoteConfig{Breakers: breakers}, Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	decided, decide := context.WithCancel(context.Background())
	decide()
	refuse := func() {
		t.Helper()
		f := remote.newFanout(context.Background(), 21)
		a, err := f.launch()
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		if res := f.run(context.Background(), decided, a); !errors.Is(res.err, context.Canceled) {
			t.Fatalf("attempt of a decided request = %d, %v; want context.Canceled", res.value, res.err)
		}
	}
	b := breakers.For("r1")
	refuse()
	if state := b.State(); state != obs.BreakerClosed || b.Opens() != 0 {
		t.Fatalf("breaker is %v after %d opens, want closed and never opened", state, b.Opens())
	}
	if got, err := remote.Execute(context.Background(), 4); err != nil || got != 8 {
		t.Fatalf("Execute after the refusal = %d, %v", got, err)
	}

	tok, _ := b.Allow()
	b.Record(tok, errors.New("injected"))
	now.Add(int64(2 * time.Second))
	refuse() // the half-open probe: recorded, so the breaker reopens
	if state := b.State(); state != obs.BreakerOpen || b.Opens() != 2 {
		t.Fatalf("breaker is %v after %d opens, want open again after its refused probe", state, b.Opens())
	}
}

// cancelOnRead is a dial shim whose connections, on the first read that
// returns bytes after next is set, call and clear next: the caller's
// cancellation lands exactly after a reply has arrived and before the
// client has decoded it.
type cancelOnRead struct {
	next atomic.Pointer[context.CancelFunc]
}

type cancelOnReadConn struct {
	net.Conn
	c *cancelOnRead
}

func (c *cancelOnRead) wrap(dial DialFunc) DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return cancelOnReadConn{Conn: conn, c: c}, nil
	}
}

func (c cancelOnReadConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if cancel := c.c.next.Swap(nil); cancel != nil {
			(*cancel)()
		}
	}
	return n, err
}

// TestCallerCancelAfterReplyNeverReturnsZero: the caller gives up just
// as a reply lands. Whichever way that race goes, a call returns the
// replica's answer or an error — never the zero value with a nil error,
// on the sequential path, the hedged one, or as quorum ballots.
func TestCallerCancelAfterReplyNeverReturnsZero(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(eps []Endpoint) (*Remote[int, int], error)
	}{
		{"sequential", func(eps []Endpoint) (*Remote[int, int], error) {
			return NewRemote[int, int]("seq", RemoteConfig{}, eps[0])
		}},
		{"hedged", func(eps []Endpoint) (*Remote[int, int], error) {
			return NewRemote[int, int]("hedger", RemoteConfig{HedgeAfter: time.Second}, eps...)
		}},
		{"quorum", func(eps []Endpoint) (*Remote[int, int], error) {
			q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1}, vote.Majority[int](intEq), intEq, eps...)
			if err != nil {
				return nil, err
			}
			return q.r, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			network := NewPipeNetwork()
			var hook cancelOnRead
			eps := startQuorumFleet(t, network, 3, func(int) core.Variant[int, int] { return double() })
			for i := range eps {
				eps[i].Dial = hook.wrap(eps[i].Dial)
			}
			r, err := tc.build(eps)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer r.Close()
			answered := 0
			for i := 1; i <= 50; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				hook.next.Store(&cancel)
				got, err := r.Execute(ctx, i)
				cancel()
				if err == nil && got != 2*i {
					t.Fatalf("call %d = %d, nil; want %d or an error", i, got, 2*i)
				}
				if err == nil {
					answered++
				}
			}
			if tc.name == "sequential" && answered == 0 {
				t.Fatal("no sequential call returned the reply that had already arrived")
			}
		})
	}
}

// TestStuckReplicaHoldsBoundedConnections: under concurrent quorum
// calls, a replica that never answers within the long CallTimeout
// would otherwise keep every request's straggler, and its connection,
// until the timeout. Salvage stops once more of its connections are in
// flight than the racing requests plus maxStragglers; past that the
// verdict cuts stragglers off, so the count stays bounded by the
// callers, not by the requests.
func TestStuckReplicaHoldsBoundedConnections(t *testing.T) {
	network := NewPipeNetwork()
	// The honest pair takes 2ms, so the stuck replica's call is on the
	// wire before each verdict.
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		if i == 2 {
			return blocker()
		}
		return sleeper(2 * time.Millisecond)
	})
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, CallTimeout: 30 * time.Second},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	stuck := q.r.view().pools[2]
	const callers, perCaller = 4, 40
	// Salvaging stragglers: fewer than callers+maxStragglers. Beside
	// them, each caller's attempt in flight and one cut off by a verdict
	// and not yet dropped.
	bound := 3*callers + maxStragglers
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			_, tracked := poolCounts(stuck)
			most = max(most, tracked)
			select {
			case <-stop:
				peak <- most
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perCaller; i++ {
				if got, err := q.Execute(context.Background(), i); err != nil || got != 2*i {
					errs <- fmt.Errorf("call %d = %d, %v", i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	most := <-peak
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if most > bound {
		t.Fatalf("%d requests left up to %d connections to the stuck replica, want at most %d", callers*perCaller, most, bound)
	}
}
