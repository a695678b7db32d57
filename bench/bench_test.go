package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed uint64) ([]int, []bulk) {
		r := &rng{state: seed ^ 1}
		var ints []int
		var bulks []bulk
		for seq := uint64(0); seq < 50; seq++ {
			ints = append(ints, intInput(seq, r))
			bulks = append(bulks, bulkInput(seq, r))
		}
		return ints, bulks
	}
	ai, ab := draw(7)
	bi, bb := draw(7)
	ci, _ := draw(8)
	same := 0
	for i := range ai {
		if ai[i] != bi[i] || !bulkEqual(ab[i], bb[i]) {
			t.Fatalf("input %d differs between two draws of seed 7", i)
		}
		if intSeq(ai[i]) != uint64(i) {
			t.Fatalf("input %d carries seq %d", i, intSeq(ai[i]))
		}
		if ai[i] == ci[i] {
			same++
		}
	}
	if same == len(ai) {
		t.Fatal("seeds 7 and 8 drew the same inputs")
	}
}

// TestFaultSchedules checks what the workloads' correctness rests on:
// each fault class takes its stated share of every client's inputs (so
// no client is spared or swamped), and no input is faulty on more than
// one replica (so every fault can be masked).
func TestFaultSchedules(t *testing.T) {
	const n = 200000
	classes := []struct {
		name  string
		share float64
		hit   func(res, replica int) bool
	}{
		{"hedged stall", 0.020, spikyStalls},
		{"hedged fail", 0.020, spikyFails},
		{"quorum lie", 0.020, bulkLies},
		{"nvp wrong", 0.025, nvpWrong},
		{"nvp fail", 0.025, nvpFails},
	}
	for client := 0; client < clients; client++ {
		r := &rng{state: 1 ^ uint64(client)}
		counts := make([][3]int, len(classes))
		for i := 0; i < n; i++ {
			x := intInput(uint64(i*clients+client), r)
			res := faultResidue(1, uint64(x))
			badSpiky, badNVP := 0, 0
			for replica := 0; replica < 3; replica++ {
				for c, class := range classes {
					if class.hit(res, replica) {
						counts[c][replica]++
					}
				}
				if spikyStalls(res, replica) || spikyFails(res, replica) {
					badSpiky++
				}
				if nvpWrong(res, replica) || nvpFails(res, replica) {
					badNVP++
				}
			}
			if badSpiky > 1 || badNVP > 1 {
				t.Fatalf("residue %d is faulty on more than one replica", res)
			}
		}
		for c, class := range classes {
			for replica, got := range counts[c] {
				if got == 0 {
					continue // the class does not apply to this replica
				}
				if share := float64(got) / n; math.Abs(share-class.share) > 0.003 {
					t.Errorf("client %d, %s on replica %d: share %.4f, want %.3f ± 0.003", client, class.name, replica, share, class.share)
				}
			}
		}
		if counts[1][1]+counts[1][2]+counts[2][0]+counts[2][1] != 0 {
			t.Error("only r1 may fail in-band and only r3 may lie")
		}
	}
}

func TestArithmetic(t *testing.T) {
	sorted := make([]uint32, 100)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
	if hi, lo := best(xs, true), best(xs, false); hi != 5 || lo != 1 {
		t.Errorf("best = %g / %g, want 5 / 1", hi, lo)
	}
	// 10 allocations over 1 request and 10 over 9: pooled is 20/10, not
	// the mean of 10 and 1.11.
	if got := pooled([]float64{10, 10}, []float64{1, 9}); got != 2 {
		t.Errorf("pooled = %g, want 2", got)
	}
	if got := spread(xs); got != 5 {
		t.Errorf("spread = %g, want 5", got)
	}
	if got := worsening(100, 90, true); got != 0.1 {
		t.Errorf("worsening of a throughput 100 → 90 = %g, want 0.1", got)
	}
	if got := worsening(100, 90, false); got != -0.1 {
		t.Errorf("worsening of a latency 100 → 90 = %g, want -0.1", got)
	}
}

// TestAgreementFloor: two sets that differ by more than setup_s's 25 %
// but less than its 0.1 s agree; by more than both, they do not.
func TestAgreementFloor(t *testing.T) {
	mk := func(setup float64) set {
		s := set{gated: map[string][]result{}}
		for _, w := range workloads {
			vals := map[string]float64{"cpu_rel_per_req": 1, "allocs_per_req": 10, "alloc_kb_per_req": 1, "setup_s": setup}
			s.gated[w.name] = []result{{Attempted: 100, Metrics: pack(endToEnd, vals)}}
		}
		return s
	}
	if err := printAgreement(io.Discard, mk(0.02), mk(0.03)); err != nil {
		t.Errorf("0.02 s vs 0.03 s: %v", err)
	}
	if err := printAgreement(io.Discard, mk(0.5), mk(0.7)); err == nil {
		t.Error("0.5 s vs 0.7 s agreed")
	}
}

// TestReferenceKernel: the kernel must not allocate (it runs inside the
// window whose allocations are counted), and the sampler must hand out
// what it timed.
func TestReferenceKernel(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(50, k.run); n != 0 {
		t.Errorf("reference kernel allocates %g times a run", n)
	}
	r := startReference(64)
	defer r.close()
	deadline := time.Now().Add(5 * time.Second)
	for us := r.take(); us <= 0; us = r.take() {
		if time.Now().After(deadline) {
			t.Fatal("no reference sample in 5 s")
		}
		time.Sleep(referenceEvery)
	}
}

// TestConnShimCounts scripts one exchange through the dial and conn
// shims: a dial during the warm-up, then, in the window, a 10-byte write
// answered by a 4-byte read.
func TestConnShimCounts(t *testing.T) {
	tr, err := newTracer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	dial := traceDial(tr, "r1", func(context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			buf := make([]byte, 10)
			if _, err := server.Read(buf); err == nil {
				server.Write([]byte("pong"))
			}
		}()
		return client, nil
	})
	conn, err := dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if d := tr.dials.Load(); d != 1 {
		t.Errorf("dials %d, want 1", d)
	}
	tr.reset() // the window starts: counters restart, the dial span stays
	if _, err := conn.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err != nil || n != 4 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if d, w, r, b := tr.dials.Load(), tr.connWrites.Load(), tr.connReads.Load(), tr.wireBytes.Load(); d != 0 || w != 1 || r != 1 || b != 14 {
		t.Errorf("dials %d writes %d reads %d bytes %d, want 0 1 1 14", d, w, r, b)
	}
	spans := tr.linked()
	if len(spans) != 3 || spans[0].Name != spanDial {
		t.Fatalf("spans = %+v, want a dial, a write and a read", spans)
	}
	for _, s := range spans[1:] {
		if s.Parent != 0 {
			t.Errorf("%s span has parent %d, want the dial span 0", s.Name, s.Parent)
		}
	}
}

func TestSelfTimeAndAnalyze(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 150}, // overlaps the first: 110..150 covered once
		{Start: 190, End: 260}, // sticks out: only 190..200 counts
		{Start: 20, End: 90},   // outside: counts nothing
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime of a leaf = %d, want 100", got)
	}

	// One quorum request: three replicas, the client answers on the
	// second reply.
	us := int64(1000)
	spans := link([]span{
		{Name: spanExec, Seq: 4, Start: 0, End: 100 * us},
		{Name: spanClientVariant, Seq: 4, Start: 5 * us, End: 95 * us},
		{Name: spanServerVariant, Seq: 4, Start: 20 * us, End: 30 * us, Where: "r1"},
		{Name: spanServerVariant, Seq: 4, Start: 25 * us, End: 45 * us, Where: "r2"},
		{Name: spanServerVariant, Seq: 4, Start: 40 * us, End: 80 * us, Where: "r3"},
		{Name: spanExec, Seq: 9, Start: 0, End: 7 * us}, // a request with no recorded children
	})
	for i, s := range spans {
		want := map[string]int{spanExec: -1, spanClientVariant: 0, spanServerVariant: 2}[s.Name]
		if s.Seq == 4 && s.Parent != want {
			t.Errorf("span %d (%s) has parent %d, want %d", i, s.Name, s.Parent, want)
		}
	}
	lt := analyze(spans, 2)
	if lt.requests != 2 || lt.patternSelfUs != (10+7)/2.0 {
		t.Errorf("pattern self = %g us over %d requests, want 8.5 over 2", lt.patternSelfUs, lt.requests)
	}
	if lt.distOutboundUs != 15 || lt.distInboundUs != 50 || lt.variantExecUs != 20 {
		t.Errorf("outbound %g inbound %g variant %g, want 15 50 20", lt.distOutboundUs, lt.distInboundUs, lt.variantExecUs)
	}
}

// TestSmoke drives every workload for 200 requests with the shims on,
// through the same set-up, gate and analysis a real run uses.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			tr, err := newTracer(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.close()
			f, err := w.build(3, tr)
			if err != nil {
				t.Fatal(err)
			}
			var states [clients]clientState
			drive(f, 3, 0, &states, func(_ int, sent int64) bool { return sent >= 100 })
			for c := range states {
				if states[c].wrong+states[c].failed != 0 {
					t.Errorf("client %d: %d wrong, %d failed", c, states[c].wrong, states[c].failed)
				}
			}
			if err := retire(w, f, 200, baseline); err != nil {
				t.Error(err)
			}
			lt := analyze(tr.linked(), w.needReplies)
			if lt.requests != 200 || lt.variantExecUs <= 0 || tr.clientVariantCalls.Load() < 200 {
				t.Errorf("trace covers %d requests, %d variant calls, variant time %g us", lt.requests, tr.clientVariantCalls.Load(), lt.variantExecUs)
			}
			if remote := w.payloadBytes > 0; remote != (tr.serverVariantCalls.Load() >= 200 && tr.wireBytes.Load() > 0 && tr.dials.Load() > 0) {
				t.Errorf("replica calls %d, wire bytes %d, dials %d on a workload with payload %d",
					tr.serverVariantCalls.Load(), tr.wireBytes.Load(), tr.dials.Load(), w.payloadBytes)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps the driver's contract file and
// the tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or their reasons differ)", i, file.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			better := map[bool]string{true: "higher", false: "lower"}[d.higher]
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, want %s %s %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %g", kind, d.name, d.bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayer, false)
}
