package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy"
)

// outcome classifies one reply against the oracle.
type outcome uint8

const (
	replyRight  outcome = iota // matches the oracle
	replyWrong                 // a value came back and it is not the oracle's
	replyFailed                // Execute returned an error
)

// fleet is one built system under test: the executor behind call, the
// replicas it talks to, and the policy objects whose counters the
// correctness gate reads after the run.
type fleet struct {
	// call generates the input for seq from the client's stream, runs
	// it through the executor, and checks the reply.
	call  func(seq uint64, r *rng) (time.Duration, outcome)
	close func()

	collector *redundancy.Collector // nil on the nil-observer workloads
	distName  string                // the dist client's name in collector, if it reports there
	breakers  *redundancy.Breakers
	bulkhead  *redundancy.Bulkhead
}

// workload is one named request mix. Names are what later issues cite.
type workload struct {
	name string
	why  string
	// executor is the pattern executor's name in a Collector.
	executor string
	// payloadBytes is the application payload one request carries, in
	// plus out; wire_overhead_ratio divides wire bytes by it.
	payloadBytes int
	// needReplies is how many successful replica replies the client
	// waits for (see analyze).
	needReplies int
	build       func(seed uint64, t *tracer) (*fleet, error)
}

var workloads = []workload{
	{
		name:         "rpc_small_pipe",
		why:          "smallest message on the no-fault path over in-memory pipes: per-message cost of the wire layer is almost all of the time",
		executor:     "single",
		payloadBytes: 16,
		needReplies:  1,
		build:        buildRPCSmallPipe,
	},
	{
		name:         "quorum_bulk_pipe",
		why:          "4 KiB payloads fanned out to a 3-replica majority quorum with a liar outvoted: per-byte copies, the vote, and straggler cancellation",
		executor:     "single",
		payloadBytes: 2 * (8 + bulkBytes),
		needReplies:  2,
		build:        buildQuorumBulkPipe,
	},
	{
		name:         "hedged_spiky_tcp",
		why:          "hedging, failover and breakers over loopback TCP while replicas stall and fail: time is mostly waiting, so wire savings must not move the tail",
		executor:     "single",
		payloadBytes: 16,
		needReplies:  1,
		build:        buildHedgedSpikyTCP,
	},
	{
		name:        "nvp_local_faulty",
		why:         "3-version majority voting in-process under breaker, bulkhead, deadline and collector: bypasses the wire layer, so a wire change predicts no movement",
		executor:    "parallel-evaluation",
		needReplies: 1,
		build:       buildNVPLocalFaulty,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Integer inputs carry the request's sequence number above 16 random
// bits, so the seam shims can read it back and the value stays far from
// overflow when doubled.
func intInput(seq uint64, r *rng) int { return int(seq<<16 | r.next()&0xffff) }

func intSeq(x int) uint64 { return uint64(x) >> 16 }

// errInjected is the in-band failure the fault schedules return. One
// shared value: the harness must not add an allocation per fault.
var errInjected = errors.New("bench: injected failure")

// caller adapts a typed executor to fleet.call, recording the exec span
// of sampled requests when a tracer is attached.
func caller[I, O any](t *tracer, exec redundancy.Executor[I, O], gen func(uint64, *rng) I, right func(I, O) bool) func(uint64, *rng) (time.Duration, outcome) {
	ctx := context.Background()
	return func(seq uint64, r *rng) (time.Duration, outcome) {
		in := gen(seq, r)
		start := time.Now()
		out, err := exec.Execute(ctx, in)
		lat := time.Since(start)
		if t != nil && t.sampled(seq) {
			s := int64(start.Sub(t.epoch))
			t.record(span{Name: spanExec, Seq: int64(seq), Start: s, End: s + int64(lat), Failed: err != nil})
		}
		switch {
		case err != nil:
			return lat, replyFailed
		case !right(in, out):
			return lat, replyWrong
		}
		return lat, replyRight
	}
}

var replicaNames = []string{"r1", "r2", "r3"}

// patience is every call and request deadline in the workloads. The
// shared sandbox freezes for about a second now and then; a request that
// waits a freeze out is slow, which the latency metrics show, not failed,
// which would void the run.
const patience = 5 * time.Second

// startReplicas serves variant(i) as replica replicaNames[i], in
// process, over in-memory pipes or loopback TCP, and returns the
// endpoints to dial them by (through the dial shim when traced) and a
// stop function that returns once every server goroutine has exited.
func startReplicas[I, O any](t *tracer, tcp bool, variant func(i int) redundancy.Variant[I, O], seqOf func(I) uint64) ([]redundancy.ReplicaEndpoint, func(), error) {
	pipes := redundancy.NewPipeNetwork()
	var (
		wg        sync.WaitGroup
		servers   []*redundancy.ReplicaServer[I, O]
		endpoints []redundancy.ReplicaEndpoint
	)
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
		wg.Wait()
	}
	for i, name := range replicaNames {
		var (
			ln   net.Listener
			dial redundancy.DialFunc
			err  error
		)
		if tcp {
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
				dial = redundancy.TCPDialer(ln.Addr().String())
			}
		} else {
			ln, err = pipes.Listen(name)
			dial = pipes.Dial(name)
		}
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("listen %s: %w", name, err)
		}
		v := traceVariant(t, spanServerVariant, variant(i), seqOf)
		srv := redundancy.NewReplicaServer(v, ln, redundancy.ReplicaServerConfig{Name: name})
		servers = append(servers, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Serve(context.Background()) // returns nil on Close
		}()
		endpoints = append(endpoints, redundancy.ReplicaEndpoint{Name: name, Dial: traceDial(t, name, dial)})
	}
	return endpoints, stop, nil
}

func double(name string) redundancy.Variant[int, int] {
	return redundancy.NewVariant(name, func(_ context.Context, x int) (int, error) { return 2 * x, nil })
}

func isDouble(in, out int) bool { return out == 2*in }

func buildRPCSmallPipe(_ uint64, t *tracer) (*fleet, error) {
	endpoints, stop, err := startReplicas(t, false, func(i int) redundancy.Variant[int, int] {
		return double(replicaNames[i])
	}, intSeq)
	if err != nil {
		return nil, err
	}
	remote, err := redundancy.NewRemoteVariant[int, int]("rpc", redundancy.RemoteConfig{CallTimeout: patience}, endpoints...)
	if err != nil {
		stop()
		return nil, err
	}
	exec, err := redundancy.NewSingle(traceVariant(t, spanClientVariant, redundancy.Variant[int, int](remote), intSeq))
	if err != nil {
		remote.Close()
		stop()
		return nil, err
	}
	return &fleet{
		call:  caller(t, redundancy.Executor[int, int](exec), intInput, isDouble),
		close: func() { remote.Close(); stop() },
	}, nil
}

// Fault schedule of hedged_spiky_tcp, in residues per mille of
// faultResidue: replica i stalls on [20i, 20i+20), and the primary also
// fails in-band on [60, 80). The classes are disjoint, so at most one
// replica is bad on any input and every request must succeed.
const (
	hedgeAfter    = 10 * time.Millisecond
	stallFor      = 50 * time.Millisecond
	stallPerMille = 20
	failLo        = 60
	failHi        = 80
)

func spikyStalls(res, i int) bool { return res >= i*stallPerMille && res < (i+1)*stallPerMille }

func spikyFails(res, i int) bool { return i == 0 && res >= failLo && res < failHi }

func spiky(seed uint64, i int) redundancy.Variant[int, int] {
	return redundancy.NewVariant(replicaNames[i], func(ctx context.Context, x int) (int, error) {
		res := faultResidue(seed, uint64(x))
		switch {
		case spikyStalls(res, i):
			timer := time.NewTimer(stallFor)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		case spikyFails(res, i):
			return 0, errInjected
		}
		return 2 * x, nil
	})
}

// breakerConfig keeps the consecutive-failure trip far above any run
// the 2–5 % fault schedules can produce by chance (0.05^10 per
// position), so a breaker that opens is a defect, not bad luck.
var breakerConfig = redundancy.BreakerConfig{ConsecutiveFailures: 10}

func buildHedgedSpikyTCP(seed uint64, t *tracer) (*fleet, error) {
	endpoints, stop, err := startReplicas(t, true, func(i int) redundancy.Variant[int, int] {
		return spiky(seed, i)
	}, intSeq)
	if err != nil {
		return nil, err
	}
	collector := redundancy.NewCollector()
	breakers := redundancy.NewBreakers(breakerConfig)
	remote, err := redundancy.NewRemoteVariant[int, int]("hedged", redundancy.RemoteConfig{
		CallTimeout: patience,
		HedgeAfter:  hedgeAfter,
		MaxHedges:   2,
		Breakers:    breakers,
		Observer:    collector,
	}, endpoints...)
	if err != nil {
		stop()
		return nil, err
	}
	exec, err := redundancy.NewSingle(traceVariant(t, spanClientVariant, redundancy.Variant[int, int](remote), intSeq),
		redundancy.WithObserver(collector))
	if err != nil {
		remote.Close()
		stop()
		return nil, err
	}
	return &fleet{
		call:      caller(t, redundancy.Executor[int, int](exec), intInput, isDouble),
		close:     func() { remote.Close(); stop() },
		collector: collector,
		distName:  "hedged",
		breakers:  breakers,
	}, nil
}

// bulkBytes is the payload size of quorum_bulk_pipe.
const bulkBytes = 4096

// bulk is quorum_bulk_pipe's input and output: the sequence number and
// a payload the replica returns reversed.
type bulk struct {
	Seq  uint64
	Data []byte
}

func bulkInput(seq uint64, r *rng) bulk {
	data := make([]byte, bulkBytes)
	for i := 0; i < bulkBytes; i += 8 {
		w := r.next()
		for j := 0; j < 8; j++ {
			data[i+j] = byte(w >> (8 * j))
		}
	}
	return bulk{Seq: seq, Data: data}
}

func bulkSeq(b bulk) uint64 { return b.Seq }

func bulkEqual(a, b bulk) bool { return a.Seq == b.Seq && bytes.Equal(a.Data, b.Data) }

func isReversed(in, out bulk) bool {
	if out.Seq != in.Seq || len(out.Data) != len(in.Data) {
		return false
	}
	for i, b := range in.Data {
		if out.Data[len(out.Data)-1-i] != b {
			return false
		}
	}
	return true
}

// liarPerMille is the share of inputs on which r3 corrupts its reply.
const liarPerMille = 20

func bulkLies(res, i int) bool { return i == 2 && res < liarPerMille }

func reverser(seed uint64, i int) redundancy.Variant[bulk, bulk] {
	return redundancy.NewVariant(replicaNames[i], func(_ context.Context, in bulk) (bulk, error) {
		out := bulk{Seq: in.Seq, Data: make([]byte, len(in.Data))}
		for j, b := range in.Data {
			out.Data[len(out.Data)-1-j] = b
		}
		if bulkLies(faultResidue(seed, in.Seq), i) {
			out.Data[0] ^= 0xff
		}
		return out, nil
	})
}

func buildQuorumBulkPipe(seed uint64, t *tracer) (*fleet, error) {
	endpoints, stop, err := startReplicas(t, false, func(i int) redundancy.Variant[bulk, bulk] {
		return reverser(seed, i)
	}, bulkSeq)
	if err != nil {
		return nil, err
	}
	quorum, err := redundancy.NewQuorumVariant[bulk, bulk]("quorum", redundancy.QuorumConfig{CallTimeout: patience, Faults: 1},
		redundancy.Majority(bulkEqual), bulkEqual, endpoints...)
	if err != nil {
		stop()
		return nil, err
	}
	exec, err := redundancy.NewSingle(traceVariant(t, spanClientVariant, redundancy.Variant[bulk, bulk](quorum), bulkSeq))
	if err != nil {
		quorum.Close()
		stop()
		return nil, err
	}
	return &fleet{
		call:  caller(t, redundancy.Executor[bulk, bulk](exec), bulkInput, isReversed),
		close: func() { quorum.Close(); stop() },
	}, nil
}

// Fault schedule of nvp_local_faulty, per mille: variant i returns a
// wrong value on [50i, 50i+25) and an error on [50i+25, 50i+50).
const nvpFaultPerMille = 25

// nvpRounds sizes a variant's integer work to about 2 µs.
const nvpRounds = 4096

// accumulate is the variants' work: x added up rounds times, which the
// oracle checks with one multiplication.
//
//go:noinline
func accumulate(x, rounds int) int {
	acc := 0
	for i := 0; i < rounds; i++ {
		acc += x
	}
	return acc
}

func nvpRoundsOf(x int) int { return nvpRounds + x&(nvpRounds-1) }

func nvpWrong(res, i int) bool {
	lo := 2 * nvpFaultPerMille * i
	return res >= lo && res < lo+nvpFaultPerMille
}

func nvpFails(res, i int) bool {
	lo := 2*nvpFaultPerMille*i + nvpFaultPerMille
	return res >= lo && res < lo+nvpFaultPerMille
}

func faultyVersion(seed uint64, i int) redundancy.Variant[int, int] {
	return redundancy.NewVariant(fmt.Sprintf("v%d", i+1), func(_ context.Context, x int) (int, error) {
		y := accumulate(x, nvpRoundsOf(x))
		switch res := faultResidue(seed, uint64(x)); {
		case nvpWrong(res, i):
			return y + 1, nil
		case nvpFails(res, i):
			return 0, errInjected
		}
		return y, nil
	})
}

func buildNVPLocalFaulty(seed uint64, t *tracer) (*fleet, error) {
	variants := make([]redundancy.Variant[int, int], 3)
	for i := range variants {
		variants[i] = traceVariant(t, spanClientVariant, faultyVersion(seed, i), intSeq)
	}
	collector := redundancy.NewCollector()
	breakers := redundancy.NewBreakers(breakerConfig)
	// Sized never to shed: more slots than there are clients.
	bulkhead := redundancy.NewBulkhead(redundancy.BulkheadConfig{MaxConcurrent: 2 * clients, MaxWaiting: 2 * clients})
	exec, err := redundancy.NewParallelEvaluation(variants, redundancy.Majority(redundancy.EqualOf[int]()),
		redundancy.WithBreaker(breakers),
		redundancy.WithBulkhead(bulkhead),
		redundancy.WithDeadline(patience, patience),
		redundancy.WithObserver(collector))
	if err != nil {
		return nil, err
	}
	return &fleet{
		call: caller(t, redundancy.Executor[int, int](exec), intInput, func(in, out int) bool {
			return out == in*nvpRoundsOf(in)
		}),
		close:     func() {},
		collector: collector,
		breakers:  breakers,
		bulkhead:  bulkhead,
	}, nil
}
