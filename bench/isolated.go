package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"github.com/softwarefaults/redundancy"
)

// The isolated metrics time one layer's public functions alone, in one
// goroutine, with no-op variants: what the layer costs when nothing
// else is in the way. They continue the BENCH_*.json microbenchmarks
// under names that say which layer they belong to.

// opCost is the cost of one operation.
type opCost struct{ ns, allocs, bytes float64 }

const (
	isolatedRounds    = 3
	isolatedRoundTime = 40 * time.Millisecond
)

// timeOp runs fn back to back for isolatedRounds rounds and returns the
// fastest round's per-call cost: a neighbour on the machine only ever
// slows a round down.
func timeOp(fn func()) opCost {
	for i := 0; i < 100; i++ {
		fn()
	}
	var bestCost opCost
	for r := 0; r < isolatedRounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		n := 0
		for time.Since(start) < isolatedRoundTime {
			for i := 0; i < 16; i++ {
				fn()
			}
			n += 16
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		c := opCost{
			ns:     float64(elapsed.Nanoseconds()) / float64(n),
			allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		}
		if r == 0 || c.ns < bestCost.ns {
			bestCost = c
		}
	}
	return bestCost
}

// isolated measures every isolated per-layer metric.
func isolated() (map[string]float64, error) {
	ctx := context.Background()
	out := map[string]float64{}
	three := []redundancy.Variant[int, int]{double("a"), double("b"), double("c")}
	eq := redundancy.EqualOf[int]()

	// pattern
	single, err := redundancy.NewSingle(three[0])
	if err != nil {
		return nil, err
	}
	c := timeOp(func() { single.Execute(ctx, 1) })
	out["pattern.single_ns"], out["pattern.single_allocs"] = c.ns, c.allocs

	pe3, err := redundancy.NewParallelEvaluation(three, redundancy.Majority(eq))
	if err != nil {
		return nil, err
	}
	c = timeOp(func() { pe3.Execute(ctx, 1) })
	out["pattern.pe3_ns"], out["pattern.pe3_allocs"] = c.ns, c.allocs

	pe3p, err := redundancy.NewParallelEvaluation(three, redundancy.Majority(eq),
		redundancy.WithBreaker(redundancy.NewBreakers(breakerConfig)),
		redundancy.WithBulkhead(redundancy.NewBulkhead(redundancy.BulkheadConfig{MaxConcurrent: 4})),
		redundancy.WithDeadline(time.Second, time.Second),
		redundancy.WithObserver(redundancy.NewCollector()))
	if err != nil {
		return nil, err
	}
	out["pattern.pe3_policies_ns"] = timeOp(func() { pe3p.Execute(ctx, 1) }).ns

	accept := func(int, int) error { return nil }
	seqalt, err := redundancy.NewSequentialAlternatives(three, accept, nil)
	if err != nil {
		return nil, err
	}
	out["pattern.seqalt_ns"] = timeOp(func() { seqalt.Execute(ctx, 1) }).ns

	// resilience
	breaker := redundancy.NewBreaker("v", breakerConfig)
	out["resilience.breaker_ns"] = timeOp(func() {
		tok, _ := breaker.Allow()
		breaker.Record(tok, nil)
	}).ns
	bulkhead := redundancy.NewBulkhead(redundancy.BulkheadConfig{MaxConcurrent: 4})
	out["resilience.bulkhead_ns"] = timeOp(func() {
		if bulkhead.Acquire(ctx) == nil {
			bulkhead.Release()
		}
	}).ns
	budget := redundancy.NewRetryBudget(10, 1)
	out["resilience.retry_budget_ns"] = timeOp(func() {
		budget.Deposit()
		budget.Withdraw()
	}).ns

	// vote
	majority := redundancy.Majority(eq)
	ints := []redundancy.Result[int]{{Variant: "a", Value: 7}, {Variant: "b", Value: 7}, {Variant: "c", Value: 7}}
	c = timeOp(func() { majority.Adjudicate(ints) })
	out["vote.majority3_ns"], out["vote.majority3_allocs"] = c.ns, c.allocs
	blob := bulkInput(1, &rng{state: 1})
	// Three copies: equal contents in distinct arrays, as three replies
	// off the wire are (bytes.Equal short-cuts a shared array).
	blobs := make([]redundancy.Result[bulk], 3)
	for i := range blobs {
		blobs[i] = redundancy.Result[bulk]{Variant: replicaNames[i], Value: bulk{Seq: blob.Seq, Data: bytes.Clone(blob.Data)}}
	}
	majority4k := redundancy.Majority(bulkEqual)
	out["vote.majority3_4k_ns"] = timeOp(func() { majority4k.Adjudicate(blobs) }).ns

	// obs: the event sequence of one 3-variant request.
	collector := redundancy.NewCollector()
	c = timeOp(func() {
		id := redundancy.NextRequestID()
		collector.RequestStart("x", id)
		for _, v := range three {
			collector.VariantStart("x", v.Name(), id)
		}
		for _, v := range three {
			collector.VariantEnd("x", v.Name(), id, time.Microsecond, nil)
		}
		collector.Adjudicated("x", id, true, false)
		collector.RequestEnd("x", id, time.Microsecond, redundancy.OutcomeSuccess)
	})
	out["obs.collector_req_ns"], out["obs.collector_req_allocs"] = c.ns, c.allocs

	// dist: Execute straight on the client, no executor in front.
	endpoints, stop, err := startReplicas(nil, false, func(i int) redundancy.Variant[int, int] {
		return double(replicaNames[i])
	}, intSeq)
	if err != nil {
		return nil, err
	}
	defer stop()
	rpc, err := redundancy.NewRemoteVariant[int, int]("rpc", redundancy.RemoteConfig{}, endpoints[0])
	if err != nil {
		return nil, err
	}
	defer rpc.Close()
	c = timeOp(func() { rpc.Execute(ctx, 1) })
	out["dist.rpc_ns"], out["dist.rpc_allocs"], out["dist.rpc_bytes"] = c.ns, c.allocs, c.bytes

	quorum, err := redundancy.NewQuorumVariant[int, int]("quorum", redundancy.QuorumConfig{Faults: 1},
		redundancy.Majority(eq), eq, endpoints...)
	if err != nil {
		return nil, err
	}
	defer quorum.Close()
	c = timeOp(func() { quorum.Execute(ctx, 1) })
	out["dist.quorum3_ns"], out["dist.quorum3_allocs"] = c.ns, c.allocs

	c = timeOp(func() {
		cold, err := redundancy.NewRemoteVariant[int, int]("cold", redundancy.RemoteConfig{}, endpoints[0])
		if err == nil {
			cold.Execute(ctx, 1)
			cold.Close()
		}
	})
	out["dist.cold_call_us"] = c.ns / 1e3

	bulkEndpoints, stopBulk, err := startReplicas(nil, false, func(i int) redundancy.Variant[bulk, bulk] {
		return reverser(0, i)
	}, bulkSeq)
	if err != nil {
		return nil, err
	}
	defer stopBulk()
	rpc4k, err := redundancy.NewRemoteVariant[bulk, bulk]("rpc4k", redundancy.RemoteConfig{}, bulkEndpoints[0])
	if err != nil {
		return nil, err
	}
	defer rpc4k.Close()
	c = timeOp(func() { rpc4k.Execute(ctx, blob) })
	out["dist.rpc_4k_ns"], out["dist.rpc_4k_bytes"] = c.ns, c.bytes

	// The gray-failure stack is parked outside the end-to-end
	// workloads; these two guard its per-request cost.
	ejector := redundancy.NewLatencyEjector(redundancy.LatencyEjectorConfig{})
	i := 0
	out["dist.ejector_observe_ns"] = timeOp(func() {
		ejector.Observe(replicaNames[i%len(replicaNames)], 100*time.Microsecond)
		i++
	}).ns
	detector := redundancy.NewFailureDetector(redundancy.FailureDetectorConfig{})
	for _, ep := range endpoints {
		detector.Watch(ep.Name, ep.Dial)
	}
	out["dist.detector_state_ns"] = timeOp(func() { detector.State("r2") }).ns

	return out, nil
}
