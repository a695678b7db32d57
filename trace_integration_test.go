package redundancy_test

// Experiment E25's acceptance test: causal trace propagation across the
// distributed fleet. The E24 scenario runs the same seeded network-chaos
// campaign, but now every process records its own trace file — the
// client executors in one TraceRecorder, each replica server in its own
// — and the trace context travels only in-band on the RPC frames.
// Afterwards the assemble package must reconstruct the
// client→wire→replica chain for at least 99% of accepted answers, the
// hedge-win attribution derived from the assembled lineages must agree
// with the collector's live counters, and the short-window SLO tracker
// must show its fast burn rate exceeding the page threshold during the
// partition and recovering after the campaign ends. Nothing may leak a
// goroutine.

import (
	"context"
	"runtime"
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/obs/assemble"
	"github.com/softwarefaults/redundancy/internal/scenario"
)

func TestE25DistributedTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("network campaign runs for a few wall-clock seconds")
	}
	before := runtime.NumGoroutine()
	redundancy.SeedTraceIDs(25)
	// The client process's own trace file; sized so the whole campaign
	// fits without eviction (attribution is compared exactly below).
	clientTraces := redundancy.NewTraceRecorder(1 << 17)
	// Each replica server records into its own recorder, exactly as a
	// separate process would.
	replicaTraces := map[string]*redundancy.TraceRecorder{}
	cfg := scenario.NetConfig(1, redundancy.DefaultNetworkCampaign(1, scenario.NetVictim), 0)
	res, err := scenario.Run(context.Background(), cfg, scenario.Options{
		Observer: clientTraces,
		ReplicaObserver: func(name string) redundancy.Observer {
			replicaTraces[name] = redundancy.NewTraceRecorder(1 << 16)
			return replicaTraces[name]
		},
	})
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}
	if total := len(res.Trials); total < 20 {
		t.Fatalf("campaign finished after only %d requests; schedule too short to judge", total)
	}
	partition := phase(res, "partition")
	if partition == nil {
		t.Fatal("workload never sampled the partition phase")
	}

	// SLO: the fast window must have paged during the partition...
	const fastBurnThreshold = 14.4
	t.Logf("E25: fast burn peaked at %.1f on %s during the partition (threshold %.1f)",
		partition.PeakBurn, partition.PeakBurnOn, fastBurnThreshold)
	if partition.PeakBurn <= fastBurnThreshold {
		t.Errorf("fast burn rate never exceeded the page threshold during the partition: peak %.1f <= %.1f",
			partition.PeakBurn, fastBurnThreshold)
	}
	// ...and recovered afterwards: once the fast window has aged past the
	// rough phases it must hold only recovery-phase traffic.
	time.Sleep(350 * time.Millisecond)
	for _, e := range []string{"parallel-selection", "via-r1", "via-r2", "via-r3"} {
		if burn := res.SLO.FastBurn(e); burn > fastBurnThreshold {
			t.Errorf("fast burn rate of %s still %.1f after recovery, want <= %.1f", e, burn, fastBurnThreshold)
		}
	}
	if res.SLO.Breaching() {
		t.Error("SLO tracker still breaching after the campaign recovered")
	}

	// Assembly: join the per-process recordings on the wire-propagated
	// trace context alone and demand a complete client→replica chain for
	// at least 99% of accepted answers.
	sources := []assemble.Source{{Name: "client", Traces: clientTraces.Snapshot()}}
	for _, name := range res.Replicas {
		sources = append(sources, assemble.Source{Name: name, Traces: replicaTraces[name].Snapshot()})
	}
	rep := assemble.Assemble(sources...)
	if rep.ClientRequests == 0 {
		t.Fatal("no accepted client requests with an RPC lineage recorded")
	}
	t.Logf("E25: %d spans across %d traces; %d/%d accepted answers linked (%.2f%%)",
		rep.Spans, rep.TraceIDs, rep.Linked, rep.ClientRequests, 100*rep.LinkRatio)
	if rep.LinkRatio < 0.99 {
		t.Errorf("link ratio %.4f, want >= 0.99: the causal chain broke for %d of %d accepted answers",
			rep.LinkRatio, rep.ClientRequests-rep.Linked, rep.ClientRequests)
	}

	// Attribution: the hedge wins reconstructed offline from the
	// assembled lineages must agree with the collector's live counters.
	var liveHedgeWins int64
	for _, snap := range res.Observed {
		liveHedgeWins += snap.HedgeWins
	}
	var assembledHedgeWins int64
	for _, a := range rep.Attribution {
		assembledHedgeWins += int64(a.HedgeWins)
	}
	if liveHedgeWins == 0 {
		t.Error("no hedged attempt ever won; tail-latency defense inert")
	}
	if assembledHedgeWins != liveHedgeWins {
		t.Errorf("assembled hedge-win attribution %d != collector hedge wins %d",
			assembledHedgeWins, liveHedgeWins)
	}
	t.Logf("E25: attribution %+v", rep.Attribution)
	expectNoLeak(t, before, "the traced fleet run")
}
