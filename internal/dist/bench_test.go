package dist

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// BenchmarkRPCRoundTrip measures one framed call over the in-memory
// transport: value encode, binary envelope, CRC frame, pipe hop, server
// dispatch, and the reply path, on a pooled connection.
func BenchmarkRPCRoundTrip(b *testing.B) {
	network := NewPipeNetwork()
	ln, err := network.Listen("r1")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	srv := NewServer(double(), ln, ServerConfig{})
	go srv.Serve(context.Background())
	defer srv.Close()
	remote, err := NewRemote[int, int]("bench", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		b.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := remote.Execute(context.Background(), i); err != nil {
			b.Fatalf("Execute: %v", err)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	b.ReportMetric(float64(latencies[len(latencies)*99/100].Nanoseconds()), "p99_ns")
}

// BenchmarkRPCRoundTrip4K is BenchmarkRPCRoundTrip with a 4 KiB
// {Seq, Data} value each way, the shape of quorum_bulk_pipe's values:
// its bytes and allocs per op are what the plain value codec costs to
// move a bulk value through both peers.
func BenchmarkRPCRoundTrip4K(b *testing.B) {
	network := NewPipeNetwork()
	ln, err := network.Listen("r1")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	echo := core.NewVariant("echo", func(_ context.Context, v blob) (blob, error) { return v, nil })
	srv := NewServer(echo, ln, ServerConfig{})
	go srv.Serve(context.Background())
	defer srv.Close()
	remote, err := NewRemote[blob, blob]("bench-4k", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		b.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	in := blob{Data: make([]byte, 4096)}
	for i := range in.Data {
		in.Data[i] = byte(i)
	}
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Seq = uint64(i)
		start := time.Now()
		if _, err := remote.Execute(context.Background(), in); err != nil {
			b.Fatalf("Execute: %v", err)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	b.ReportMetric(float64(latencies[len(latencies)*99/100].Nanoseconds()), "p99_ns")
}

// BenchmarkTracedRPCRoundTrip is BenchmarkRPCRoundTrip with full trace
// recording on both sides: trace-recording observers on client and
// server, a traced caller context, and per-attempt spans on the wire.
// The delta against BenchmarkRPCRoundTrip (and the p99_ns columns in
// BENCH_net.json) quantifies trace-propagation overhead.
func BenchmarkTracedRPCRoundTrip(b *testing.B) {
	network := NewPipeNetwork()
	ln, err := network.Listen("r1")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	srv := NewServer(double(), ln, ServerConfig{Observer: obs.NewTraceRecorder(64)})
	go srv.Serve(context.Background())
	defer srv.Close()
	remote, err := NewRemote[int, int]("bench-traced", RemoteConfig{
		Observer: obs.Combine(obs.NewCollector(), obs.NewTraceRecorder(64)),
	}, Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		b.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx, _ := obs.StartTrace(context.Background())
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := remote.Execute(ctx, i); err != nil {
			b.Fatalf("Execute: %v", err)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	b.ReportMetric(float64(latencies[len(latencies)*99/100].Nanoseconds()), "p99_ns")
}

// BenchmarkQuorumRoundTrip measures one majority-voted call across a
// 2k+1 fleet (n=3, k=1): three concurrent framed round trips, the
// padded-slate adjudication on each settle, and the straggler finishing
// its exchange in the background and pooling its connection.
// The delta against BenchmarkRPCRoundTrip prices the Byzantine-fault
// defense: n wire hops and a vote instead of one trusting call.
func BenchmarkQuorumRoundTrip(b *testing.B) {
	network := NewPipeNetwork()
	endpoints := make([]Endpoint, 0, 3)
	for _, name := range []string{"r1", "r2", "r3"} {
		ln, err := network.Listen(name)
		if err != nil {
			b.Fatalf("Listen(%q): %v", name, err)
		}
		srv := NewServer(double(), ln, ServerConfig{Name: name})
		go srv.Serve(context.Background())
		b.Cleanup(func() { srv.Close() })
		endpoints = append(endpoints, Endpoint{Name: name, Dial: network.Dial(name)})
	}
	eq := func(a, c int) bool { return a == c }
	quorum, err := NewQuorum[int, int]("bench-quorum", QuorumConfig{Faults: 1},
		vote.Majority[int](eq), eq, endpoints...)
	if err != nil {
		b.Fatalf("NewQuorum: %v", err)
	}
	defer quorum.Close()
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := quorum.Execute(context.Background(), i); err != nil {
			b.Fatalf("Execute: %v", err)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	b.ReportMetric(float64(latencies[len(latencies)*99/100].Nanoseconds()), "p99_ns")
}

// spikyVariant answers instantly except for a deterministic fraction of
// calls that stall for spike — the injected tail latency the hedged
// client is supposed to cut.
func spikyVariant(name string, seed uint64, everyNth int, spike time.Duration) core.Variant[int, int] {
	return core.NewVariant(name, func(ctx context.Context, x int) (int, error) {
		if uint64(x)%uint64(everyNth) == seed%uint64(everyNth) {
			select {
			case <-time.After(spike):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		return 2 * x, nil
	})
}

// benchTailLatency drives sequential calls through remote, collects
// per-call latency, and reports the 99th percentile as p99_ns next to
// the usual ns/op. scripts/bench.sh captures the metric into
// BENCH_net.json, where the hedged and unhedged runs can be compared.
func benchTailLatency(b *testing.B, remote *Remote[int, int]) {
	b.Helper()
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := remote.Execute(context.Background(), i); err != nil {
			b.Fatalf("Execute: %v", err)
		}
		latencies = append(latencies, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99_ns")
}

// tailBenchCluster serves three replicas that each spike on a different
// (deterministic) 2% of inputs, so a hedge to any sibling of a spiking
// replica answers fast.
func tailBenchCluster(b *testing.B) (*PipeNetwork, []Endpoint) {
	b.Helper()
	network := NewPipeNetwork()
	const spike = 5 * time.Millisecond
	endpoints := make([]Endpoint, 0, 3)
	for i, name := range []string{"r1", "r2", "r3"} {
		ln, err := network.Listen(name)
		if err != nil {
			b.Fatalf("Listen(%q): %v", name, err)
		}
		srv := NewServer(spikyVariant(name, uint64(17*i+3), 50, spike), ln, ServerConfig{Name: name})
		go srv.Serve(context.Background())
		b.Cleanup(func() { srv.Close() })
		endpoints = append(endpoints, Endpoint{Name: name, Dial: network.Dial(name)})
	}
	return network, endpoints
}

// BenchmarkUnhedgedTailLatency is the control: one client, no hedging,
// so every latency spike lands on the caller in full.
func BenchmarkUnhedgedTailLatency(b *testing.B) {
	_, endpoints := tailBenchCluster(b)
	remote, err := NewRemote[int, int]("unhedged", RemoteConfig{
		CallTimeout: 5 * time.Second,
	}, endpoints...)
	if err != nil {
		b.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	benchTailLatency(b, remote)
}

// BenchmarkHedgedTailLatency hedges to the next replica when an attempt
// is slower than a small multiple of the healthy round trip; its p99_ns
// must come in well under the unhedged control's.
func BenchmarkHedgedTailLatency(b *testing.B) {
	_, endpoints := tailBenchCluster(b)
	remote, err := NewRemote[int, int]("hedged", RemoteConfig{
		CallTimeout: 5 * time.Second,
		HedgeAfter:  200 * time.Microsecond,
		MaxHedges:   2,
	}, endpoints...)
	if err != nil {
		b.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	benchTailLatency(b, remote)
}

// BenchmarkP2CPick measures the incremental routing cost the ejector
// adds to every request: one trickle-probe scan plus the power-of-two-
// choices primary pick over a healthy 5-endpoint fleet (seeded pair
// sample, two EWMA loads, one compare). This is the per-request price
// of latency-aware routing and must stay well under a microsecond so
// attaching an Ejector never shows up in RPC benchmarks.
func BenchmarkP2CPick(b *testing.B) {
	e := NewEjector(EjectorConfig{Seed: 42})
	names := []string{"p1", "p2", "p3", "p4", "p5"}
	for i, n := range names {
		for s := 0; s < 8; s++ {
			e.Observe(n, time.Duration(i+1)*time.Millisecond)
		}
	}
	name := func(i int) string { return names[i] }
	order := make([]int, len(names))
	class := make([]int, len(names))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range order {
			order[j] = j
			class[j] = 0
		}
		e.route(len(names), name, class)
		e.p2cFront(order, class, name)
	}
}
