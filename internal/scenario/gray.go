package scenario

// The gray mode (E29): three replicas where the client's configured
// primary turns fail-slow for the middle of the run — it acks every
// heartbeat and answers correctly, but serves Factor× slower. The limp
// window is keyed to the fleet request counter (a healthy warmup, the
// limp, a recovery tail), so both arms inject exactly the same fault.
// Config.Gray "off" is the unmitigated arm: static routing, no hedging,
// no ejector. "on" adds hedged requests (the Config's HedgeAfter), the
// latency ejector with probation, and the gray-failure policy, which
// rejuvenates the limper on persistent slowness evidence.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/control"
	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/dist"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/supervise"
)

const (
	// grayBaseLatency is every replica's healthy service time, the unit
	// the limp factor multiplies. It is large against scheduler and
	// race-detector noise (an additive multi-millisecond p99 tail), so a
	// 20× limp clears a 10× tail amplification under -race too.
	grayBaseLatency = 5 * time.Millisecond
	// grayHedgeAfter is the mitigated arm's hedge delay: well above the
	// healthy hiccup tail, so only genuine limping produces censored
	// (hedged-away) samples, and far under the limp, so a hedge bounds
	// every slow call.
	grayHedgeAfter = 12 * time.Millisecond
	// grayMinKeep is the ejection floor: never fewer than 2 of 3 in
	// rotation.
	grayMinKeep = 2
)

var grayDetector = dist.DetectorConfig{
	Name: "fleet-detector", Interval: 50 * time.Millisecond, Timeout: 80 * time.Millisecond,
	SuspectAfter: 2, DeadAfter: 6,
}

// GrayConfig is the Config of a gray run: on arms the mitigation stack,
// off runs the same fail-slow fault (spec "profile[:factor]")
// unmitigated.
func GrayConfig(seed uint64, requests int, on bool, spec string) campaign.Config {
	cfg := fleetConfig("gray", "single", seed, requests)
	cfg.Gray, cfg.GrayFault = arm(on), spec
	cfg.Executor.CallTimeout = callTimeout
	if on {
		cfg.Executor.HedgeAfter = faultmodel.Duration(grayHedgeAfter)
		cfg.Executor.MaxHedges = 2
	}
	return cfg
}

func runGray(ctx context.Context, f *fleet) error {
	profile, factor, err := faultmodel.ParseFailSlowSpec(f.cfg.GrayFault)
	if err != nil {
		return err
	}
	n := f.cfg.Requests
	limpFrom, limpUntil := n/5, 3*n/5
	f.res.Fault = fmt.Sprintf("r1 fail-slow %s ×%g over requests [%d, %d)", profile, factor, limpFrom, limpUntil)
	// The gate reads the fleet counter, not the limper's own call count:
	// ejection starves the limper of traffic, and it must still recover
	// on the schedule's clock.
	var fleetReq atomic.Int64
	limping := func(i int) bool { return i >= limpFrom && i < limpUntil }
	serve := func(name string) core.Variant[int, int] {
		return core.NewVariant(name, func(ctx context.Context, x int) (int, error) {
			timer := time.NewTimer(grayBaseLatency)
			defer timer.Stop()
			select {
			case <-timer.C:
				return 2 * x, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
	}
	// r1 is the configured primary — the worst replica to lose to a gray
	// failure, because static routing concentrates traffic on it.
	limper := &faultmodel.FailSlow[int, int]{
		Base:        serve("r1"),
		Profile:     profile,
		Factor:      factor,
		BaseLatency: grayBaseLatency,
		Seed:        f.cfg.Seed,
		Replica:     "r1",
		RampCalls:   n / 10,
		Gate:        func() bool { return limping(int(fleetReq.Load())) },
	}

	det := grayDetector
	det.Seed = f.cfg.Seed
	f.start("gray-fleet", det)
	fleetNames := names(3)
	for _, name := range fleetNames {
		v := serve(name)
		if name == "r1" {
			v = limper
		}
		if _, err := f.serve(name, v, false); err != nil {
			return err
		}
	}
	rc := f.remoteConfig()
	var children []supervise.ChildSpec
	if f.cfg.Gray == "on" {
		rc.Ejector = dist.NewEjector(dist.EjectorConfig{
			Name:           "fleet-ejector",
			Alpha:          0.5,
			Threshold:      2.5,
			MinSamples:     3,
			MinKeep:        grayMinKeep,
			ProbeEvery:     48,
			ReinstateAfter: 3,
			Seed:           f.cfg.Seed,
			Detector:       f.detector,
			Observer:       f.observer,
		})
		// The loop closes on the ejector's slowness evidence: persistent
		// limping earns a rejuvenation, which cures the limp; the
		// ejector's probes then see the recovery and reinstate.
		f.controller = control.New(control.Config{
			Name:              "controller",
			Tick:              40 * time.Millisecond,
			MaxActionsPerKind: 4,
			RateWindow:        2 * time.Second,
			Sources:           control.Sources{Detector: f.detector.States, Evidence: f.detector.Evidence},
			Policies: []control.Policy{control.NewGrayFailurePolicy(control.GrayFailurePolicyConfig{
				SlownessThreshold: 2,
				SettleTicks:       2,
				CooldownTicks:     25,
			})},
			Actuators: map[string]control.Actuator{
				control.ActionRejuvenate: f.acting(func(_ context.Context, a control.Action) (control.Action, error) {
					if a.Target == "r1" {
						limper.Rejuvenate()
					}
					return a, nil
				}),
			},
			Observer: f.observer,
		})
		children = append(children, f.controller.AsChild())
	}
	remote, err := dist.NewRemote[int, int]("fleet", rc, f.endpoints(fleetNames)...)
	if err != nil {
		return err
	}
	defer remote.Close()
	if err := f.launch(ctx, children...); err != nil {
		return err
	}

	var limpStart time.Time
	healthy := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		fleetReq.Store(int64(i))
		if i == limpFrom {
			limpStart = time.Now()
		}
		fault := ""
		if limping(i) {
			// Every request in the window ran against a degraded fleet,
			// whether or not it was routed to the limper.
			fault = "failslow"
		}
		f.call(ctx, remote, i, fault, remote.Name())
		if fault == "" {
			healthy = append(healthy, f.res.Trials[i].Latency)
		}
		if ej := rc.Ejector; ej != nil {
			if f.res.TimeToEject == 0 && !limpStart.IsZero() && ej.Ejected("r1") {
				f.res.TimeToEject = time.Since(limpStart)
			}
			inRotation := len(fleetNames)
			for _, ep := range ej.Snapshot() {
				if ep.Ejected {
					inRotation--
				}
			}
			if inRotation < grayMinKeep {
				f.res.FloorViolations++
			}
		}
	}
	f.stop()

	// The baseline pools every gate-closed request (warmup and tail): a
	// p99 over the larger pool is far steadier against isolated scheduler
	// hiccups than one over the warmup alone.
	f.res.BaselineP99 = percentile(healthy, 99)
	ejected := map[string]bool{}
	if ej := rc.Ejector; ej != nil {
		f.res.Latency = ej.Snapshot()
		for _, ep := range f.res.Latency {
			ejected[ep.Endpoint] = ep.Ejections > 0
		}
	}
	f.res.Ejection = campaign.NewEjection(map[string]bool{"r1": true, "r2": false, "r3": false}, ejected)
	if rc.Ejector != nil {
		f.res.Ejection.Reinstated = rc.Ejector.Reinstatements()
	}
	f.res.HedgeAfter = remote.HedgeAfter()
	return nil
}
