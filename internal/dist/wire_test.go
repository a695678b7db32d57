package dist

// Tests of the per-connection codec state (wire.go) and of the rule
// that keeps it sound: a connection whose value streams may differ
// between the peers is closed, never pooled. Run with -race -count=10.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// tap is a dial shim that counts dials and records the size of every
// client-side Write, and on each connection the last deadline set.
type tap struct {
	mu     sync.Mutex
	dials  int
	writes []int
}

type tappedConn struct {
	net.Conn
	t *tap

	mu       sync.Mutex
	deadline time.Time
}

func (t *tap) wrap(dial DialFunc) DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		c, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		t.dials++
		t.mu.Unlock()
		return &tappedConn{Conn: c, t: t}, nil
	}
}

func (c *tappedConn) Write(p []byte) (int, error) {
	c.t.mu.Lock()
	c.t.writes = append(c.t.writes, len(p))
	c.t.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tappedConn) SetDeadline(d time.Time) error {
	c.mu.Lock()
	c.deadline = d
	c.mu.Unlock()
	return c.Conn.SetDeadline(d)
}

// lastDeadline returns the last deadline set, zero if none ever was.
func (c *tappedConn) lastDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline
}

func (t *tap) snapshot() (dials int, writes []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials, append([]int(nil), t.writes...)
}

// idle returns how many connections the remote's pool for its first
// endpoint holds.
func idle[I, O any](r *Remote[I, O]) int {
	p := r.view().pools[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// serve is startReplica for any value types.
func serve[I, O any](t *testing.T, network *PipeNetwork, name string, fn func(I) (O, error)) *Server[I, O] {
	t.Helper()
	ln, err := network.Listen(name)
	if err != nil {
		t.Fatalf("Listen(%q): %v", name, err)
	}
	srv := NewServer(core.NewVariant(name, func(_ context.Context, in I) (O, error) { return fn(in) }), ln, ServerConfig{Name: name})
	go srv.Serve(context.Background())
	t.Cleanup(func() { srv.Close() })
	return srv
}

// point is a struct-typed RPC value, and a plain one (codec.go).
type point struct{ X, Y int }

func mirror(p point) (point, error) { return point{X: p.Y, Y: p.X}, nil }

// tagged is a struct value that still goes through gob — a map is not
// plain — so gob describes its type on the wire before the first value.
type tagged struct {
	X, Y int
	Tags map[string]int
}

func swapTagged(v tagged) (tagged, error) { return tagged{X: v.Y, Y: v.X, Tags: v.Tags}, nil }

func TestValueTypeCrossesOncePerConnection(t *testing.T) {
	network := NewPipeNetwork()
	serve(t, network, "r1", swapTagged)
	var tp tap
	remote, err := NewRemote[tagged, tagged]("swap", RemoteConfig{}, Endpoint{Name: "r1", Dial: tp.wrap(network.Dial("r1"))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	if remote.in.put != nil || remote.out.get != nil {
		t.Fatal("tagged values skip gob: this test needs a gob-coded type")
	}
	for i := 1; i <= 2; i++ {
		got, err := remote.Execute(context.Background(), tagged{X: i, Y: -i, Tags: map[string]int{"call": i}})
		if err != nil || got.X != -i || got.Y != i || len(got.Tags) != 1 || got.Tags["call"] != i {
			t.Fatalf("call %d = %+v, %v", i, got, err)
		}
	}
	dials, writes := tp.snapshot()
	if dials != 1 || len(writes) != 2 {
		t.Fatalf("two calls made %d dials and %d writes, want 1 and 2 (one Write per frame)", dials, len(writes))
	}
	if writes[1] >= writes[0] {
		t.Fatalf("second call sent %d bytes, first %d: the type descriptor crossed again", writes[1], writes[0])
	}
}

// TestPlainValuesSkipGob: a plain value — an int, a named int, a
// struct of ints — is a fixed-layout payload from the first call on,
// and neither peer ever builds a gob stream for it; a type with its own
// gob methods, or with a field that is not plain, still goes through
// gob.
func TestPlainValuesSkipGob(t *testing.T) {
	type celsius int
	if codecFor[point]().put == nil || codecFor[celsius]().put == nil {
		t.Fatal("a plain value type goes through gob")
	}
	if codecFor[picky]().put != nil || codecFor[tagged]().put != nil {
		t.Fatal("a gob-coded type skips gob")
	}
	t.Run("int", func(t *testing.T) {
		plainCalls(t, func(x int) (int, error) { return 2 * x, nil }, []int{21, math.MinInt, 0}, 8)
	})
	t.Run("struct", func(t *testing.T) {
		plainCalls(t, mirror, []point{{1, -1}, {math.MinInt, 7}, {math.MaxInt, 0}, {}}, 16)
	})
}

// plainCalls calls a replica serving fn with each of inputs, and checks
// the answers, that every call wrote one frame with a payload of size
// bytes, and that both peers code T without gob: the server by its
// codecs, the client by its connections, none of which built a gob
// stream.
func plainCalls[T comparable](t *testing.T, fn func(T) (T, error), inputs []T, size int) {
	t.Helper()
	network := NewPipeNetwork()
	srv := serve(t, network, "r1", fn)
	if srv.in.get == nil || srv.out.put == nil {
		t.Fatal("the server codes its values with gob")
	}
	var tp tap
	remote, err := NewRemote[T, T]("plain", RemoteConfig{}, Endpoint{Name: "r1", Dial: tp.wrap(network.Dial("r1"))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	for _, in := range inputs {
		want, _ := fn(in)
		if got, err := remote.Execute(context.Background(), in); err != nil || got != want {
			t.Fatalf("Execute(%+v) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	_, writes := tp.snapshot()
	for i, n := range writes {
		if want := frameHeaderSize + envelopeFixedSize + size; n != want {
			t.Fatalf("call %d wrote %d bytes, want %d", i+1, n, want)
		}
	}
	p := remote.view().pools[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.all {
		if c.enc != nil || c.dec != nil {
			t.Fatal("a plain-only client connection built a gob stream")
		}
	}
}

// TestBadIntPayloadIsACorruptFrame: an int payload of any size but 8
// is ErrBadFrame on either side, and the connection carrying it is
// abandoned — by the server with an abort, by the client by dropping it.
func TestBadIntPayloadIsACorruptFrame(t *testing.T) {
	t.Run("server-side", func(t *testing.T) {
		network := NewPipeNetwork()
		startReplica(t, network, "r1", double())
		raw, err := network.Dial("r1")(context.Background())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer raw.Close()
		raw.SetDeadline(time.Now().Add(5 * time.Second))
		wc := newWireConn(raw)
		if err := wc.send(&envelope{Kind: kindCall, ID: 1, Payload: []byte{0, 0, 0, 0, 0, 0, 42}}); err != nil {
			t.Fatalf("send: %v", err)
		}
		reply, err := wc.recv()
		if err != nil || reply.Kind != kindAbort || !strings.Contains(reply.Err, ErrBadFrame.Error()) {
			t.Fatalf("reply to a 7-byte int = %+v, %v; want an abort naming a corrupt frame", reply, err)
		}
		if _, err := wc.recv(); err == nil {
			t.Fatal("the server kept the connection after aborting it")
		}
	})
	t.Run("client-side", func(t *testing.T) {
		network := NewPipeNetwork()
		ln, err := network.Listen("r1")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		defer ln.Close()
		go func() {
			for {
				raw, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer raw.Close()
					wc := newWireConn(raw)
					for {
						call, err := wc.recv()
						if err != nil {
							return
						}
						payload := append(append([]byte(nil), call.Payload...), 0) // 9 bytes
						if wc.send(&envelope{Kind: kindReply, ID: call.ID, Payload: payload}) != nil {
							return
						}
					}
				}()
			}
		}()
		remote, err := NewRemote[int, int]("caller", RemoteConfig{}, Endpoint{Name: "r1", Dial: network.Dial("r1")})
		if err != nil {
			t.Fatalf("NewRemote: %v", err)
		}
		defer remote.Close()
		if got, err := remote.Execute(context.Background(), 21); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("Execute with a 9-byte int reply = %d, %v; want ErrBadFrame", got, err)
		}
		if n := idle(remote); n != 0 {
			t.Fatalf("%d connections pooled after a corrupt int reply, want 0", n)
		}
	})
}

// picky is a value that travels fine but refuses to decode as 13, so a
// test can fail one value codec on one side of one call.
type picky struct{ N int }

var errPicky = errors.New("picky: will not decode 13")

func (p picky) GobEncode() ([]byte, error) { return []byte{byte(p.N)}, nil }

func (p *picky) GobDecode(b []byte) error {
	if len(b) != 1 || b[0] == 13 {
		return errPicky
	}
	p.N = int(b[0])
	return nil
}

func TestValueCodecFailureClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  int // the input whose call fails
		fn   func(picky) (picky, error)
	}{
		// 13 fails to decode at the server, which aborts the connection.
		{"server-side", 13, func(p picky) (picky, error) { return p, nil }},
		// 12 becomes a 13 that fails to decode at the client.
		{"client-side", 12, func(p picky) (picky, error) { return picky{N: p.N + 1}, nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			network := NewPipeNetwork()
			serve(t, network, "r1", tc.fn)
			var tp tap
			remote, err := NewRemote[picky, picky]("picky", RemoteConfig{}, Endpoint{Name: "r1", Dial: tp.wrap(network.Dial("r1"))})
			if err != nil {
				t.Fatalf("NewRemote: %v", err)
			}
			defer remote.Close()
			if remote.in.put != nil || remote.out.get != nil {
				t.Fatal("picky values skip gob: this test needs a gob-coded type")
			}
			ctx := context.Background()
			if _, err := remote.Execute(ctx, picky{N: 1}); err != nil {
				t.Fatalf("warm-up call: %v", err)
			}
			if got, err := remote.Execute(ctx, picky{N: tc.bad}); err == nil {
				t.Fatalf("undecodable value: got %+v, want an error", got)
			}
			if n := idle(remote); n != 0 {
				t.Fatalf("%d connections pooled after a value codec failure, want 0", n)
			}
			want, _ := tc.fn(picky{N: 2})
			if got, err := remote.Execute(ctx, picky{N: 2}); err != nil || got != want {
				t.Fatalf("call after the failure = %+v, %v; want %+v", got, err, want)
			}
			if dials, _ := tp.snapshot(); dials != 2 {
				t.Fatalf("%d dials, want 2: the poisoned connection replaced by exactly one fresh one", dials)
			}
		})
	}
}

func TestCancelledAttemptCostsNothing(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	var tp tap
	remote, err := NewRemote[int, int]("doubler", RemoteConfig{}, Endpoint{Name: "r1", Dial: tp.wrap(network.Dial("r1"))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	check := func(stage string, wantDials, wantIdle int) {
		t.Helper()
		if _, err := remote.Execute(cancelled, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Execute on a cancelled context = %v, want context.Canceled", stage, err)
		}
		dials, writes := tp.snapshot()
		if dials != wantDials || idle(remote) != wantIdle || len(writes) != wantDials {
			t.Fatalf("%s: %d dials, %d idle, %d writes; want %d, %d, %d",
				stage, dials, idle(remote), len(writes), wantDials, wantIdle, wantDials)
		}
	}
	check("cold pool", 0, 0)
	if got, err := remote.Execute(context.Background(), 21); err != nil || got != 42 {
		t.Fatalf("Execute = %d, %v", got, err)
	}
	check("warm pool", 1, 1)
}

// TestDuplicatedAndReorderedFrames drives calls through the fault
// injector's connection, once with a plain value type and once with a
// gob-coded one. A duplicated or held-back frame answers the wrong
// call, and leaves gob streams out of step; the call that notices must
// fail and drop its connection, and no call may ever return a wrong
// value.
func TestDuplicatedAndReorderedFrames(t *testing.T) {
	for _, phase := range []faultmodel.NetworkPhase{
		{Name: "duplicate", Duplicate: 0.5},
		{Name: "reorder", Reorder: 0.5},
	} {
		phase.Duration = faultmodel.Duration(time.Hour)
		t.Run(phase.Name, func(t *testing.T) {
			t.Run("plain", func(t *testing.T) {
				disturbedCalls(t, phase, mirror, func(i int) point { return point{X: i, Y: -i} },
					func(i int, got point) bool { return got == point{X: -i, Y: i} })
			})
			t.Run("gob", func(t *testing.T) {
				disturbedCalls(t, phase, swapTagged, func(i int) tagged { return tagged{X: i, Y: -i} },
					func(i int, got tagged) bool { return got.X == -i && got.Y == i && got.Tags == nil })
			})
		})
	}
}

// disturbedCalls makes 24 calls, the i-th with input(i), to a replica
// serving fn behind a connection disturbed by phase, and checks every
// answer with ok.
func disturbedCalls[T any](t *testing.T, phase faultmodel.NetworkPhase, fn func(T) (T, error), input func(int) T, ok func(int, T) bool) {
	t.Helper()
	network := NewPipeNetwork()
	serve(t, network, "r1", fn)
	campaign := &faultmodel.NetworkCampaign{Name: phase.Name, Seed: 7, Phases: []faultmodel.NetworkPhase{phase}}
	var tp tap
	// The tap sits inside the injector, so it sees what reaches
	// the pipe. The deadline is short because on a synchronous
	// pipe a disturbed exchange ends in both peers blocked.
	remote, err := NewRemote[T, T]("disturbed", RemoteConfig{CallTimeout: 50 * time.Millisecond},
		Endpoint{Name: "r1", Dial: campaign.Wrap("r1", tp.wrap(network.Dial("r1")))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	campaign.Start()
	failures, lastFailed := 0, false
	for i := 1; i <= 24; i++ {
		got, err := remote.Execute(context.Background(), input(i))
		lastFailed = err != nil
		if err != nil {
			failures++
			if n := idle(remote); n != 0 {
				t.Fatalf("call %d failed (%v) and left %d connections pooled", i, err, n)
			}
		} else if !ok(i, got) {
			t.Fatalf("call %d returned the wrong value %+v", i, got)
		}
	}
	if failures == 0 || failures == 24 {
		t.Fatalf("%d of 24 calls failed; the schedule should disturb some and spare some", failures)
	}
	want := 1 + failures
	if lastFailed {
		want-- // nothing redialed after it
	}
	if dials, _ := tp.snapshot(); dials != want {
		t.Fatalf("%d dials for %d failures, want %d: one fresh connection per dropped one", dials, failures, want)
	}
}

func TestConcurrentExecuteOverSharedPools(t *testing.T) {
	network := NewPipeNetwork()
	var endpoints []Endpoint
	for _, name := range []string{"r1", "r2", "r3"} {
		serve(t, network, name, mirror)
		endpoints = append(endpoints, Endpoint{Name: name, Dial: network.Dial(name)})
	}
	eq := func(a, b point) bool { return a == b }
	sequential, err := NewRemote[point, point]("sequential", RemoteConfig{}, endpoints...)
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer sequential.Close()
	hedged, err := NewRemote[point, point]("hedged", RemoteConfig{HedgeAfter: 20 * time.Microsecond}, endpoints...)
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer hedged.Close()
	quorum, err := NewQuorum[point, point]("quorum", QuorumConfig{Faults: 1}, vote.Majority(eq), eq, endpoints...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer quorum.Close()
	for _, client := range []core.Variant[point, point]{sequential, hedged, quorum} {
		t.Run(client.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						in := point{X: g, Y: i}
						got, err := client.Execute(context.Background(), in)
						if err != nil || got != (point{X: i, Y: g}) {
							t.Errorf("%s: Execute(%+v) = %+v, %v", client.Name(), in, got, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestRoundTripAllocBudget is the ratchet on the wire path's
// allocations: one warmed, unobserved, unhedged call over a pipe —
// client and server side together, since AllocsPerRun counts the whole
// process. The client's side bounds the attempt with the connection's
// own timer, and int values travel as fixed 8-byte payloads, so neither
// side allocates for them; the server restarts its connection's call
// context for each call that nobody watched, so it allocates nothing
// either (one per call while each call had a context of its own).
// Raising the budget needs a reason in the commit that does it.
func TestRoundTripAllocBudget(t *testing.T) {
	const budget = 0
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	remote, err := NewRemote[int, int]("budget", RemoteConfig{}, Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	call := func() {
		if got, err := remote.Execute(ctx, 21); err != nil || got != 42 {
			panic(fmt.Sprintf("Execute = %d, %v", got, err))
		}
	}
	call() // dial
	if allocs := testing.AllocsPerRun(200, call); allocs > budget {
		t.Fatalf("%.0f allocs per round trip, budget %d", allocs, budget)
	}
}

// TestBulkRoundTripAllocBudget is TestRoundTripAllocBudget for a 4 KiB
// {Seq, Data} value echoed back: the plain codec reads and writes the
// value through its fields, so what a round trip allocates is the two
// copies of its payload: the server's decoded input and the client's
// decoded reply.
// Raising the budget needs a reason in the commit that does it.
func TestBulkRoundTripAllocBudget(t *testing.T) {
	const budget = 2
	network := NewPipeNetwork()
	serve(t, network, "r1", func(v blob) (blob, error) { return v, nil })
	remote, err := NewRemote[blob, blob]("budget", RemoteConfig{}, Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	in := blob{Seq: 7, Data: make([]byte, 4096)}
	for i := range in.Data {
		in.Data[i] = byte(i)
	}
	call := func() {
		if got, err := remote.Execute(ctx, in); err != nil || got.Seq != in.Seq || !bytes.Equal(got.Data, in.Data) {
			panic(fmt.Sprintf("Execute = seq %d, %d bytes, %v", got.Seq, len(got.Data), err))
		}
	}
	call() // dial
	if allocs := testing.AllocsPerRun(200, call); allocs > budget {
		t.Fatalf("%.0f allocs per 4 KiB round trip, budget %d", allocs, budget)
	}
}

// TestQuorumAllocBudget is TestRoundTripAllocBudget for a warmed,
// unobserved n=3 majority quorum over pipes. The client's fan-out
// allocates nothing: its state is recycled, the attempts run on the
// connections' workers and the vote tallies on the stack (11 allocs
// while a racing request made its own goroutines, channel, timer and
// cancelable context), and each replica restarts its connection's call
// context rather than allocating one per call (3 allocs while it did,
// one per attempt that reached its replica), so the budget is zero. The
// straggler's late reply is read in the background and its connection
// pooled rather than redialled. Each pool starts with one connection, and each
// measured call waits for its straggler to pool its connection, so
// every call finds all three idle and takes each or leaves it for a
// straggler the verdict beat to the pool; no call may dial.
// Raising the budget needs a reason in the commit that does it.
func TestQuorumAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 0
	network := NewPipeNetwork()
	eps := startQuorumFleet(t, network, 3, func(int) core.Variant[int, int] { return double() })
	var dials atomic.Int64
	for i := range eps {
		dial := eps[i].Dial
		eps[i].Dial = func(ctx context.Context) (net.Conn, error) {
			dials.Add(1)
			return dial(ctx)
		}
	}
	q, err := NewQuorum[int, int]("budget", QuorumConfig{Faults: 1}, vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	ctx := context.Background()
	pools := q.r.view().pools
	call := func() {
		if got, err := q.Execute(ctx, 21); err != nil || got != 42 {
			panic(fmt.Sprintf("Execute = %d, %v", got, err))
		}
		for _, p := range pools {
			if !waitPool(p, 2*time.Second, settled) {
				panic("a straggler never pooled its connection")
			}
		}
	}
	// One idle connection per replica before the first call: a replica
	// whose attempt keeps arriving after the verdict (a loaded machine)
	// would otherwise never finish a dial, and dial during measurement.
	for i, p := range pools {
		c, err := p.get(ctx, time.Now().Add(time.Second), eps[i].Dial)
		if err != nil {
			t.Fatalf("dial %s: %v", eps[i].Name, err)
		}
		p.put(c)
	}
	for i := 0; i < 20; i++ {
		call()
	}
	const runs = 200
	before := dials.Load()
	allocs := testing.AllocsPerRun(runs, call)
	if n := dials.Load() - before; n != 0 {
		t.Fatalf("%d dials while measuring, want 0: a warmed quorum call must reuse its connections", n)
	}
	if allocs > budget {
		t.Fatalf("%.1f allocs per quorum call, budget %d", allocs, budget)
	}
}

// TestHedgedAllocBudget is TestQuorumAllocBudget for a warmed,
// unobserved hedged Remote whose hedge is armed on every call but never
// fires: the request borrows its recycled state, re-arms the recycled
// hedge timer and hands its one attempt to the connection's worker,
// and the server restarts its connection's call context, none of which
// allocates (1 alloc while the server made a context per call).
// Raising the budget needs a reason in the commit that does it.
func TestHedgedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 0
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	startReplica(t, network, "r2", double())
	remote, err := NewRemote[int, int]("budget", RemoteConfig{HedgeAfter: time.Second},
		Endpoint{Name: "r1", Dial: network.Dial("r1")},
		Endpoint{Name: "r2", Dial: network.Dial("r2")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	call := func() {
		if got, err := remote.Execute(ctx, 21); err != nil || got != 42 {
			panic(fmt.Sprintf("Execute = %d, %v", got, err))
		}
	}
	for i := 0; i < 20; i++ {
		call() // dial, then start the connection's worker
	}
	if allocs := testing.AllocsPerRun(200, call); allocs > budget {
		t.Fatalf("%.1f allocs per hedged call, budget %d", allocs, budget)
	}
}
