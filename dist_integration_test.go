package redundancy_test

// Experiment E24's acceptance test: a three-replica fleet behind the
// framed RPC transport survives a seeded network-chaos campaign —
// partition of one replica, packet loss, latency spikes, connection
// resets — while a parallel-selection executor keeps availability at or
// above 99%, the heartbeat failure detector convicts the partitioned
// replica within its heartbeat window, hedged requests win during the
// rough phases, and nothing leaks a goroutine. The fleet is the one
// `faultsim -net-chaos` runs, built by internal/scenario.

import (
	"context"
	"runtime"
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/scenario"
)

func TestE24DistributedReplicaFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("network campaign runs for a few wall-clock seconds")
	}
	before := runtime.NumGoroutine()
	const victim = scenario.NetVictim
	campaign := redundancy.DefaultNetworkCampaign(1, victim)
	res, err := scenario.Run(context.Background(), scenario.NetConfig(1, campaign, 0), scenario.Options{})
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}

	total := len(res.Trials)
	if total < 20 {
		t.Fatalf("campaign finished after only %d requests; schedule too short to judge", total)
	}
	availability := float64(res.Served) / float64(total)
	t.Logf("E24: %d/%d requests served (availability %.2f%%) across %v of network chaos",
		res.Served, total, 100*availability, campaign.Total())
	if availability < 0.99 {
		t.Errorf("availability %.4f under network chaos, want >= 0.99", availability)
	}
	if phase(res, "partition") == nil {
		t.Fatal("campaign never entered its partition phase")
	}
	suspectWindow := 2*100*time.Millisecond + 80*time.Millisecond + 300*time.Millisecond
	if convicted, ok := res.TimeToSuspect[victim]; !ok {
		t.Errorf("detector never convicted the partitioned replica %s", victim)
	} else if convicted > suspectWindow {
		t.Errorf("detector took %v to suspect %s, want within %v", convicted, victim, suspectWindow)
	} else {
		t.Logf("E24: detector convicted %s %v after the partition began", victim, convicted)
	}

	// Hedges fired and won somewhere in the rough phases.
	var hedges, wins, suspects int64
	for _, snap := range res.Observed {
		hedges += snap.Hedges
		wins += snap.HedgeWins
		suspects += snap.ReplicaSuspects
	}
	if hedges == 0 {
		t.Error("no hedged attempts launched across the whole campaign")
	}
	if wins == 0 {
		t.Error("no hedged attempt ever won; tail-latency defense inert")
	}
	if suspects == 0 {
		t.Error("no replica suspicion recorded by the observation layer")
	}
	t.Logf("E24: %d hedges launched, %d won; %d suspicion transitions", hedges, wins, suspects)
	expectNoLeak(t, before, "the fleet run")
}

// phase returns the named network-campaign phase the run saw, or nil.
func phase(res *scenario.Result, name string) *scenario.Phase {
	for i := range res.Phases {
		if res.Phases[i].Name == name {
			return &res.Phases[i]
		}
	}
	return nil
}

// expectNoLeak fails t unless the goroutine count returns to before:
// every server, detector, client, and supervisor of the runs must have
// shut down. Exiting goroutines get a moment first.
func expectNoLeak(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked across %s: %d before, %d after\n%s",
		what, before, runtime.NumGoroutine(), buf[:n])
}
