package scenario

// The net mode (E24, E25): three replicas behind the framed RPC
// transport, three hedging RemoteVariants — each preferring a different
// primary — under a parallel-selection executor. A clean run serves a
// fixed request count; with a NetworkCampaign in the Config every dial
// path, heartbeats included, goes through the campaign's seeded
// partitions, loss, duplication, reordering, spikes, and resets, and the
// workload runs for the campaign's wall-clock schedule.

import (
	"context"
	"fmt"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/dist"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
)

// NetVictim is the replica the builtin network campaign partitions.
const NetVictim = "r2"

// heartbeats is the failure detector of the net and control fleets.
var heartbeats = dist.DetectorConfig{
	Name: "fleet-detector", Interval: 100 * time.Millisecond, Timeout: 80 * time.Millisecond,
	SuspectAfter: 2, DeadAfter: 6,
}

// netClient is the client policy of the net fleet; the control fleet's
// client adds retries to it.
var netClient = campaign.ExecutorConfig{
	BreakerConsecutiveFailures: 8,
	BreakerOpenFor:             faultmodel.Duration(250 * time.Millisecond),
	CallTimeout:                callTimeout,
	HedgeAfter:                 faultmodel.Duration(25 * time.Millisecond),
	MaxHedges:                  2,
}

// clientSLO is the client-path objective of the net and control fleets.
// The windows are scaled to the seconds-long campaign phases so the
// fast window visibly burns during an incident and recovers after it;
// the latency objective sits below the net fleet's hedge delay, so a
// partition the selection layer masks still burns on the per-replica-
// path executors, whose hedged rescues cost at least HedgeAfter.
var clientSLO = obs.SLOConfig{
	Default:    obs.SLObjective{Target: 0.999, Latency: 20 * time.Millisecond},
	FastWindow: 500 * time.Millisecond,
	SlowWindow: 3 * time.Second,
}

// NetConfig is the Config of a net run: a clean network when camp is
// nil, else camp's schedule (which then governs the run's length).
func NetConfig(seed uint64, camp *faultmodel.NetworkCampaign, requests int) campaign.Config {
	cfg := fleetConfig("net", "selection", seed, requests)
	cfg.Network, cfg.Executor = camp, netClient
	if camp != nil {
		cfg.Trials = 0 // the campaign's wall-clock schedule governs
	}
	return cfg
}

func runNet(ctx context.Context, f *fleet) error {
	slo := obs.NewSLOTracker(clientSLO)
	f.res.SLO = slo
	f.start("replica-fleet", heartbeats, slo)
	fleetNames := names(3)
	for _, name := range fleetNames {
		if _, err := f.serve(name, double, false); err != nil {
			return err
		}
	}
	rc := f.remoteConfig()
	variants := make([]core.Variant[int, int], len(fleetNames))
	sloExecs := []string{"parallel-selection"}
	for i := range fleetNames {
		order := append(append([]string(nil), fleetNames[i:]...), fleetNames[:i]...)
		remote, err := dist.NewRemote[int, int]("via-"+fleetNames[i], rc, f.endpoints(order)...)
		if err != nil {
			return err
		}
		defer remote.Close()
		variants[i] = remote
		sloExecs = append(sloExecs, remote.Name())
		f.res.HedgeAfter = remote.HedgeAfter()
	}
	accept := func(in, out int) error {
		if out != 2*in {
			return fmt.Errorf("got %d want %d", out, 2*in)
		}
		return nil
	}
	sel, err := pattern.NewParallelSelection(variants,
		[]core.AcceptanceTest[int, int]{accept, accept, accept}, pattern.WithObserver(f.observer))
	if err != nil {
		return err
	}
	if err := f.launch(ctx); err != nil {
		return err
	}

	camp := f.cfg.Network
	if camp != nil {
		camp.Start()
	}
	f.res.TimeToSuspect = map[string]time.Duration{}
	partitioned := map[string]time.Time{} // replica → its partition's first request
	for n := 0; ; n++ {
		if camp != nil && camp.Done() || camp == nil && n >= f.cfg.Requests {
			break
		}
		name, cut := "", []string(nil)
		if camp != nil {
			if _, p := camp.PhaseNow(); p != nil {
				name, cut = p.Name, p.Partition
			}
		}
		if len(f.res.Phases) == 0 || f.res.Phases[len(f.res.Phases)-1].Name != name {
			f.res.Phases = append(f.res.Phases, Phase{Name: name})
			for _, r := range cut {
				if _, seen := f.res.TimeToSuspect[r]; !seen && partitioned[r].IsZero() {
					partitioned[r] = time.Now()
				}
			}
		}
		for r, from := range partitioned {
			if f.detector.State(r) != obs.ReplicaAlive {
				f.res.TimeToSuspect[r] = time.Since(from)
				delete(partitioned, r)
			}
		}
		f.call(ctx, sel, n+1, "", "")
		phase := &f.res.Phases[len(f.res.Phases)-1]
		for _, e := range sloExecs {
			if burn := slo.FastBurn(e); burn > phase.PeakBurn {
				phase.PeakBurn, phase.PeakBurnOn = burn, e
			}
		}
		sel.Reset() // network faults are transient; re-enable for the next request
	}
	return nil
}
