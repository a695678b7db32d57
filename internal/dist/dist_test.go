// Package dist tests: the framed RPC transport, replica servers, and
// the hedged remote-variant client, all over the deterministic in-memory
// PipeNetwork (plus one real-TCP round trip). Run with -race: the client
// fans hedged attempts across goroutines and the server handles
// concurrent connections.
package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/resilience"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// startReplica serves variant on the pipe network under name and
// registers cleanup. It returns the server.
func startReplica(t *testing.T, network *PipeNetwork, name string, v core.Variant[int, int]) *Server[int, int] {
	t.Helper()
	ln, err := network.Listen(name)
	if err != nil {
		t.Fatalf("Listen(%q): %v", name, err)
	}
	srv := NewServer(v, ln, ServerConfig{Name: name})
	go srv.Serve(context.Background())
	t.Cleanup(func() { srv.Close() })
	return srv
}

func double() core.Variant[int, int] {
	return core.NewVariant("double", func(_ context.Context, x int) (int, error) {
		return 2 * x, nil
	})
}

// frameOf builds one sealed frame around body.
func frameOf(t testing.TB, body []byte) []byte {
	t.Helper()
	frame := append(make([]byte, frameHeaderSize), body...)
	if err := sealFrame(frame); err != nil {
		t.Fatalf("sealFrame: %v", err)
	}
	return frame
}

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("the body survives framing")
	got, err := readFrame(bytes.NewReader(frameOf(t, body)), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("frame round trip: got %q want %q", got, body)
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	raw := frameOf(t, []byte("about to be corrupted"))
	raw[len(raw)-1] ^= 0xFF // flip a body bit; the CRC must notice
	if _, err := readFrame(bytes.NewReader(raw), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame: got %v, want ErrBadFrame", err)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	var hdr [frameHeaderSize]byte
	hdr[0] = frameVersion
	binary.BigEndian.PutUint32(hdr[1:5], MaxFrameSize+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameRejectsVersionMismatch(t *testing.T) {
	raw := frameOf(t, []byte("future payload"))
	for _, v := range []byte{frameVersion + 1, frameVersion - 1, 0} {
		raw[0] = v
		_, err := readFrame(bytes.NewReader(raw), nil)
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("version %d: got %v, want ErrVersionMismatch", v, err)
		}
	}
	raw[0] = frameVersion
	if _, err := readFrame(bytes.NewReader(raw), nil); err != nil {
		t.Fatalf("matching version rejected: %v", err)
	}
}

func TestFrameReusesBuffer(t *testing.T) {
	stream := append(frameOf(t, []byte("first, and the longer one")), frameOf(t, []byte("second"))...)
	r := bytes.NewReader(stream)
	first, err := readFrame(r, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	second, err := readFrame(r, first)
	if err != nil || string(second) != "second" {
		t.Fatalf("second frame: %q, %v", second, err)
	}
	if &second[0] != &first[0] {
		t.Fatal("a frame that fits the buffer it was handed was read elsewhere")
	}
}

func TestEnvelopeTraceFieldsRoundTrip(t *testing.T) {
	in := &envelope{ID: 7, Kind: kindCall, Payload: []byte("x"), TraceID: 0xABCD, SpanID: 0x1234}
	body, err := readFrame(bytes.NewReader(frameOf(t, appendEnvelope(nil, in))), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	out, err := parseEnvelope(body)
	if err != nil {
		t.Fatalf("parseEnvelope: %v", err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID || out.ID != in.ID || out.Kind != in.Kind || string(out.Payload) != "x" {
		t.Fatalf("envelope fields lost in transit: got %+v want %+v", out, in)
	}
}

func TestRemoteCallRoundTrip(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	remote, err := NewRemote[int, int]("doubler", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	got, err := remote.Execute(context.Background(), 21)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got != 42 {
		t.Fatalf("Execute: got %d want 42", got)
	}
}

func TestRemoteErrorTravelsInBand(t *testing.T) {
	boom := errors.New("replica-side failure")
	network := NewPipeNetwork()
	startReplica(t, network, "r1", core.NewVariant("fails",
		func(_ context.Context, _ int) (int, error) { return 0, boom }))
	remote, err := NewRemote[int, int]("failing", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	_, err = remote.Execute(context.Background(), 1)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("remote failure: got %v, want ErrRemote", err)
	}
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("remote failure: got %v, want ErrAllVariantsFailed in chain", err)
	}
	if !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("remote failure lost the message: %v", err)
	}
}

func TestRemoteContainsReplicaPanic(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", core.NewVariant("panics",
		func(_ context.Context, _ int) (int, error) { panic("replica blew up") }))
	remote, err := NewRemote[int, int]("panicky", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	_, err = remote.Execute(context.Background(), 1)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("replica panic: got %v, want ErrRemote (guarded server-side)", err)
	}
	// The connection survived the panic: the next call works.
	if got, err := remote.Execute(context.Background(), 3); err == nil {
		t.Fatalf("panicking variant returned %d, want error", got)
	}
}

func TestRemoteConnectionReuse(t *testing.T) {
	var dials atomic.Int32
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	base := network.Dial("r1")
	counting := func(ctx context.Context) (net.Conn, error) {
		dials.Add(1)
		return base(ctx)
	}
	remote, err := NewRemote[int, int]("pooled", RemoteConfig{},
		Endpoint{Name: "r1", Dial: counting})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	for i := 0; i < 10; i++ {
		if _, err := remote.Execute(context.Background(), i); err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("10 sequential calls dialed %d times, want 1 (pooling)", n)
	}
}

func TestRemoteFailsOverToNextEndpoint(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "good", double())
	remote, err := NewRemote[int, int]("failover", RemoteConfig{},
		Endpoint{Name: "down", Dial: network.Dial("down")}, // nothing listening
		Endpoint{Name: "good", Dial: network.Dial("good")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	got, err := remote.Execute(context.Background(), 5)
	if err != nil {
		t.Fatalf("failover Execute: %v", err)
	}
	if got != 10 {
		t.Fatalf("failover Execute: got %d want 10", got)
	}
}

func TestRemoteAllEndpointsDown(t *testing.T) {
	network := NewPipeNetwork()
	remote, err := NewRemote[int, int]("doomed", RemoteConfig{},
		Endpoint{Name: "a", Dial: network.Dial("a")},
		Endpoint{Name: "b", Dial: network.Dial("b")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	_, err = remote.Execute(context.Background(), 1)
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("all down: got %v, want ErrAllVariantsFailed", err)
	}
	if !errors.Is(err, ErrReplicaUnavailable) {
		t.Fatalf("all down: got %v, want ErrReplicaUnavailable in chain", err)
	}
}

func TestRemoteHedgeRacesSlowEndpoint(t *testing.T) {
	network := NewPipeNetwork()
	release := make(chan struct{})
	startReplica(t, network, "slow", core.NewVariant("slow",
		func(ctx context.Context, x int) (int, error) {
			select {
			case <-release:
				return x, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}))
	startReplica(t, network, "fast", double())
	defer close(release)
	collector := obs.NewCollector()
	remote, err := NewRemote[int, int]("hedger", RemoteConfig{
		CallTimeout: 5 * time.Second,
		HedgeAfter:  10 * time.Millisecond,
		Observer:    collector,
	},
		Endpoint{Name: "slow", Dial: network.Dial("slow")},
		Endpoint{Name: "fast", Dial: network.Dial("fast")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	got, err := remote.Execute(context.Background(), 7)
	if err != nil {
		t.Fatalf("hedged Execute: %v", err)
	}
	if got != 14 {
		t.Fatalf("hedged Execute: got %d want 14 (the hedge's answer)", got)
	}
	var snap *obs.ExecutorSnapshot
	for _, s := range collector.Snapshot() {
		if s.Executor == "hedger" {
			snap = &s
			break
		}
	}
	if snap == nil {
		t.Fatal("no executor snapshot for the hedging client")
	}
	if snap.Hedges == 0 {
		t.Fatal("hedge launched but not counted")
	}
	if snap.HedgeWins == 0 {
		t.Fatal("hedge won but not counted")
	}
}

func TestRemoteBreakerSkipsOpenEndpoint(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "good", double())
	var dials atomic.Int32
	badBase := network.Dial("bad") // nothing listening
	bad := func(ctx context.Context) (net.Conn, error) {
		dials.Add(1)
		return badBase(ctx)
	}
	breakers := resilience.NewBreakers(resilience.BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             time.Hour,
	})
	remote, err := NewRemote[int, int]("guarded", RemoteConfig{Breakers: breakers},
		Endpoint{Name: "bad", Dial: bad},
		Endpoint{Name: "good", Dial: network.Dial("good")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	for i := 0; i < 6; i++ {
		if _, err := remote.Execute(context.Background(), i); err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
	}
	// Two failures trip the breaker; afterwards the dead endpoint must be
	// skipped without dialing.
	if n := dials.Load(); n != 2 {
		t.Fatalf("dead endpoint dialed %d times, want 2 (breaker skips after trip)", n)
	}
}

func TestRemoteDetectorRoutesAroundSuspect(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	startReplica(t, network, "r2", double())
	det := NewDetector(DetectorConfig{Timeout: 100 * time.Millisecond, SuspectAfter: 1})
	det.Watch("r1", network.Dial("r1"))
	det.Watch("r2", func(ctx context.Context) (net.Conn, error) {
		return nil, ErrReplicaUnavailable // r2's heartbeat path is partitioned
	})
	det.Poll(context.Background())
	if got := det.State("r2"); got != obs.ReplicaSuspect {
		t.Fatalf("r2 state after missed heartbeat: %v, want suspect", got)
	}
	var firstDialed atomic.Value
	dialTracking := func(name string, base DialFunc) DialFunc {
		return func(ctx context.Context) (net.Conn, error) {
			firstDialed.CompareAndSwap(nil, name)
			return base(ctx)
		}
	}
	remote, err := NewRemote[int, int]("routed", RemoteConfig{Detector: det},
		Endpoint{Name: "r2", Dial: dialTracking("r2", network.Dial("r2"))},
		Endpoint{Name: "r1", Dial: dialTracking("r1", network.Dial("r1"))})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	if _, err := remote.Execute(context.Background(), 1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// r2 is listed first but suspect; the detector must route to r1.
	if got := firstDialed.Load(); got != "r1" {
		t.Fatalf("first dial went to %v, want r1 (alive ranked before suspect)", got)
	}
}

func TestRemotePlugsIntoPatternExecutors(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	startReplica(t, network, "r2", double())
	startReplica(t, network, "r3", core.NewVariant("flaky",
		func(_ context.Context, _ int) (int, error) { return 0, errors.New("flaky replica") }))
	mk := func(name string) core.Variant[int, int] {
		r, err := NewRemote[int, int](name, RemoteConfig{},
			Endpoint{Name: name, Dial: network.Dial(name)})
		if err != nil {
			t.Fatalf("NewRemote(%q): %v", name, err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	variants := []core.Variant[int, int]{mk("r1"), mk("r2"), mk("r3")}
	accept := core.AcceptanceTest[int, int](func(in, out int) error {
		if out != 2*in {
			return fmt.Errorf("got %d want %d", out, 2*in)
		}
		return nil
	})
	tests := []core.AcceptanceTest[int, int]{accept, accept, accept}

	sel, err := pattern.NewParallelSelection(variants, tests)
	if err != nil {
		t.Fatalf("NewParallelSelection: %v", err)
	}
	if got, err := sel.Execute(context.Background(), 4); err != nil || got != 8 {
		t.Fatalf("parallel selection over remotes: got %d, %v; want 8, nil", got, err)
	}
	seq, err := pattern.NewSequentialAlternatives(variants, accept, nil)
	if err != nil {
		t.Fatalf("NewSequentialAlternatives: %v", err)
	}
	if got, err := seq.Execute(context.Background(), 6); err != nil || got != 12 {
		t.Fatalf("sequential alternatives over remotes: got %d, %v; want 12, nil", got, err)
	}
	eval, err := pattern.NewParallelEvaluation(variants[:2],
		vote.Majority[int](func(a, b int) bool { return a == b }))
	if err != nil {
		t.Fatalf("NewParallelEvaluation: %v", err)
	}
	if got, err := eval.Execute(context.Background(), 10); err != nil || got != 20 {
		t.Fatalf("parallel evaluation over remotes: got %d, %v; want 20, nil", got, err)
	}
}

func TestRemoteOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	srv := NewServer(double(), ln, ServerConfig{Name: "tcp-replica"})
	go srv.Serve(context.Background())
	defer srv.Close()
	remote, err := NewRemote[int, int]("tcp-client", RemoteConfig{},
		Endpoint{Name: "tcp-replica", Dial: TCPDialer(ln.Addr().String())})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	got, err := remote.Execute(context.Background(), 100)
	if err != nil {
		t.Fatalf("Execute over TCP: %v", err)
	}
	if got != 200 {
		t.Fatalf("Execute over TCP: got %d want 200", got)
	}
}

func TestNewRemoteValidation(t *testing.T) {
	network := NewPipeNetwork()
	if _, err := NewRemote[int, int]("empty", RemoteConfig{}); !errors.Is(err, core.ErrNoVariants) {
		t.Fatalf("no endpoints: got %v, want ErrNoVariants", err)
	}
	if _, err := NewRemote[int, int]("dup", RemoteConfig{},
		Endpoint{Name: "a", Dial: network.Dial("a")},
		Endpoint{Name: "a", Dial: network.Dial("a")}); err == nil {
		t.Fatal("duplicate endpoint names accepted")
	}
	if _, err := NewRemote[int, int]("anon", RemoteConfig{},
		Endpoint{Dial: network.Dial("a")}); err == nil {
		t.Fatal("unnamed endpoint accepted")
	}
}

func TestPipeNetworkAddressLifecycle(t *testing.T) {
	network := NewPipeNetwork()
	ln, err := network.Listen("addr")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := network.Listen("addr"); err == nil {
		t.Fatal("double Listen on one address succeeded")
	}
	if got := ln.Addr().String(); got != "addr" {
		t.Fatalf("Addr: %q, want addr", got)
	}
	ln.Close()
	ln.Close() // idempotent
	if _, err := network.Listen("addr"); err != nil {
		t.Fatalf("Listen after Close: %v (address must be reusable)", err)
	}
	dial := network.Dial("ghost")
	if _, err := dial(context.Background()); !errors.Is(err, ErrReplicaUnavailable) {
		t.Fatalf("dial unknown address: got %v, want ErrReplicaUnavailable", err)
	}
}

func TestServerCallTimeoutBoundsWedgedVariant(t *testing.T) {
	network := NewPipeNetwork()
	ln, err := network.Listen("wedged")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := NewServer(core.NewVariant("hangs",
		func(ctx context.Context, _ int) (int, error) {
			<-ctx.Done() // honors cancellation; the server's CallTimeout fires it
			return 0, ctx.Err()
		}), ln, ServerConfig{Name: "wedged", CallTimeout: 20 * time.Millisecond})
	go srv.Serve(context.Background())
	defer srv.Close()
	remote, err := NewRemote[int, int]("caller", RemoteConfig{CallTimeout: 5 * time.Second},
		Endpoint{Name: "wedged", Dial: network.Dial("wedged")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	start := time.Now()
	_, err = remote.Execute(context.Background(), 1)
	if err == nil {
		t.Fatal("wedged variant returned success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("server CallTimeout did not bound the call: took %v", elapsed)
	}
}

// TestCallContextShutdownDuringCall: a variant waiting on its served
// call's context when the server shuts down sees it end with Canceled, and the server
// does not wait out CallTimeout for it.
func TestCallContextShutdownDuringCall(t *testing.T) {
	network := NewPipeNetwork()
	ln, err := network.Listen("r1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	entered, seen := make(chan struct{}), make(chan error, 1)
	srv := NewServer(core.NewVariant("waits", func(ctx context.Context, _ int) (int, error) {
		close(entered)
		<-ctx.Done()
		seen <- ctx.Err()
		return 0, ctx.Err()
	}), ln, ServerConfig{CallTimeout: time.Hour})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(context.Background()) }()
	remote, err := NewRemote[int, int]("caller", RemoteConfig{CallTimeout: time.Hour}, Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	called := make(chan error, 1)
	go func() {
		_, err := remote.Execute(context.Background(), 1)
		called <- err
	}()
	<-entered
	start := time.Now()
	go srv.Close() // waits for the variant
	select {
	case err := <-seen:
		if err != context.Canceled {
			t.Fatalf("variant's context ended with %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown did not end the variant's context")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v after Close", err)
	}
	if err := <-called; err == nil {
		t.Fatal("a call cut off by shutdown succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
}
