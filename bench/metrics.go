package main

import "slices"

// metricDef names one reported metric. The tables below are the single
// source of the names, units and directions; BENCHMARK.json repeats them
// for the driver and a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	floor  float64 // -agree only: a difference below this, in the metric's unit, never counts
}

// endToEnd are the gated metrics, reported for every workload with
// tracing off. failed_share and wrong_answers, which the fault
// schedules fix at exactly 0, travel in the result's correct /
// attempted / failed fields instead: a gated metric must never be 0.
var endToEnd = []metricDef{
	{name: "cpu_rel_per_req", unit: "ratio", bound: 0.15},
	{name: "allocs_per_req", unit: "count", bound: 0.05},
	{name: "alloc_kb_per_req", unit: "KiB", bound: 0.05},
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.1},
}

// demoted are the wall-clock and CPU timings of the same window. On the
// shared sandbox none of them repeats within 15 % from one run to the
// next (README.md has the measured spreads), so they are reported, by
// every untraced run in its text and by the traced run in its result,
// but not gated.
var demoted = []metricDef{
	{name: "throughput_rps", unit: "req/s", higher: true},
	{name: "latency_p50_us", unit: "us"},
	{name: "latency_p99_us", unit: "us"},
	{name: "cpu_us_per_req", unit: "us"},
}

// perLayerRun are the ungated metrics one traced run of a workload
// yields: layer.metric, layers being this repository's packages.
var perLayerRun = append(slices.Clone(demoted), []metricDef{
	// Traced: read off the span tree and the seam counters.
	{name: "pattern.self_us", unit: "us"},
	{name: "pattern.variants_per_req", unit: "count"},
	{name: "pattern.masked_share", unit: "ratio", higher: true},
	{name: "dist.outbound_us", unit: "us"},
	{name: "dist.inbound_us", unit: "us"},
	{name: "variant.exec_us", unit: "us"},
	{name: "dist.dials_per_req", unit: "count"},
	{name: "dist.conn_writes_per_req", unit: "count"},
	{name: "dist.wire_bytes_per_req", unit: "B"},
	{name: "dist.wire_overhead_ratio", unit: "ratio"},
	{name: "dist.write_block_us_per_req", unit: "us"},
	{name: "dist.read_block_us_per_req", unit: "us"},
	{name: "dist.attempts_per_req", unit: "count"},
	{name: "dist.useful_attempt_ratio", unit: "ratio", higher: true},
	{name: "dist.hedges_per_req", unit: "count"},
	{name: "dist.hedge_win_ratio", unit: "ratio", higher: true},
	{name: "resilience.breaker_opens", unit: "count"},
	{name: "resilience.shed_share", unit: "ratio"},
	// The untraced half of the traced run.
	{name: "runtime.gc_cycles_per_kreq", unit: "count"},
	{name: "runtime.gc_pause_share", unit: "ratio"},
	{name: "runtime.heap_retained_kb", unit: "KiB"},
	// Both halves.
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "trace.spans_per_req", unit: "count"},
	// Harness health.
	{name: "loadgen.samples", unit: "count", higher: true},
	{name: "loadgen.repeat_spread", unit: "ratio"},
	{name: "loadgen.timer_overshoot_us", unit: "us"},
	{name: "loadgen.loadavg_start", unit: "count"},
	{name: "loadgen.ref_kernel_us", unit: "us"},
}...)

// perLayerIsolated are the ungated metrics that time one layer's public
// functions alone, in one goroutine; no workload enters into them.
var perLayerIsolated = []metricDef{
	{name: "pattern.single_ns", unit: "ns"},
	{name: "pattern.single_allocs", unit: "count"},
	{name: "pattern.pe3_ns", unit: "ns"},
	{name: "pattern.pe3_allocs", unit: "count"},
	{name: "pattern.pe3_policies_ns", unit: "ns"},
	{name: "pattern.seqalt_ns", unit: "ns"},
	{name: "resilience.breaker_ns", unit: "ns"},
	{name: "resilience.bulkhead_ns", unit: "ns"},
	{name: "resilience.retry_budget_ns", unit: "ns"},
	{name: "vote.majority3_ns", unit: "ns"},
	{name: "vote.majority3_allocs", unit: "count"},
	{name: "vote.majority3_4k_ns", unit: "ns"},
	{name: "obs.collector_req_ns", unit: "ns"},
	{name: "obs.collector_req_allocs", unit: "count"},
	{name: "dist.rpc_ns", unit: "ns"},
	{name: "dist.rpc_allocs", unit: "count"},
	{name: "dist.rpc_bytes", unit: "B"},
	{name: "dist.rpc_4k_ns", unit: "ns"},
	{name: "dist.rpc_4k_bytes", unit: "B"},
	{name: "dist.quorum3_ns", unit: "ns"},
	{name: "dist.quorum3_allocs", unit: "count"},
	{name: "dist.cold_call_us", unit: "us"},
	{name: "dist.ejector_observe_ns", unit: "ns"},
	{name: "dist.detector_state_ns", unit: "ns"},
}

// perLayer is what a traced run reports to the driver: both lists.
var perLayer = append(slices.Clone(perLayerRun), perLayerIsolated...)

// metricValue is one metric in a run's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pack turns measured values into a result's metrics, in the units the
// table fixes. A value missing from vals is a harness bug.
func pack(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}
