package scenario

// The control mode (E28): three replicas that accumulate every fault
// shape the repo models — r1 ages toward wear-out, r2 is killed outright
// a third of the way in, r3 trips a deterministic bohrbug from three
// fifths on — behind a failover/hedging Remote client with retries. The
// autonomic controller watches the fleet through five actuators
// (replace, hedge-tune, deposit-tune, rejuvenate, substitute); with
// Config.Control "off" the identical controller runs frozen behind its
// kill switch, so the pair shows exactly what the loop buys.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/control"
	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/dist"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/obs/health"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/resilience"
	"github.com/softwarefaults/redundancy/internal/service"
)

const (
	// retryAttempts and retryDeposit complete the client's retry policy
	// (the Config records the budget's capacity and the backoff).
	retryAttempts = 2
	retryDeposit  = 0.1
	// maxReplicas bounds the replica executors the diagnosis policy
	// watches: the initial three plus any replacements.
	maxReplicas = 9
)

// ControlConfig is the Config of a control run; on selects the live
// controller, off the frozen one.
func ControlConfig(seed uint64, requests int, on bool) campaign.Config {
	cfg := fleetConfig("control", "single", seed, requests)
	cfg.Control, cfg.Executor = arm(on), netClient
	cfg.Executor.RetryBudget = 50
	cfg.Executor.RetryBaseBackoff = faultmodel.Duration(time.Millisecond)
	cfg.Executor.RetryMaxBackoff = faultmodel.Duration(5 * time.Millisecond)
	cfg.Executor.RetryJitter = 0.5
	return cfg
}

func arm(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// simProc simulates one replica's serving process. Aging: after limit
// serves since the last reinitialization the process is worn out and
// every call fails — rejuvenation cures it. Bohrbug: inputs at or past
// bugAt take a broken code path — reinitialization cannot help, only
// substituting another implementation can.
type simProc struct {
	name  string
	limit int64 // serves before wear-out; 0 = never ages
	bugAt int64 // first input the buggy path rejects; 0 = no bug

	served     atomic.Int64 // serves since the last rejuvenation
	substitute atomic.Pointer[service.Proxy]
}

func (p *simProc) execute(ctx context.Context, x int) (int, error) {
	if p.bugAt > 0 && int64(x) >= p.bugAt {
		if proxy := p.substitute.Load(); proxy != nil {
			// The controller rebound this code path to a substitute
			// provider; the replica serves through it from now on.
			return proxy.Invoke(ctx, "double", x)
		}
		return 0, fmt.Errorf("%s: deterministic fault on input %d", p.name, x)
	}
	if p.limit > 0 && p.served.Load() >= p.limit {
		return 0, fmt.Errorf("%s: worn out after %d serves", p.name, p.limit)
	}
	p.served.Add(1)
	return 2 * x, nil
}

func runControl(ctx context.Context, f *fleet) error {
	n := f.cfg.Requests
	agingLimit, killAt, bugAt := int64(n/5), n/3, int64(3*n/5)
	f.res.Fault = fmt.Sprintf("r1 ages (wear-out every %d serves), r2 killed at request %d, r3 bohrbug from input %d", agingLimit, killAt, bugAt)

	engine := health.New(health.Config{})
	slo := obs.NewSLOTracker(clientSLO)
	f.res.SLO = slo
	f.start("replica-fleet", heartbeats, engine, slo)
	// procs is written before launch and afterwards only by the
	// controller's goroutine, which runs every actuator.
	procs := map[string]*simProc{}
	serve := func(p *simProc, dynamic bool) (*dist.Server[int, int], error) {
		procs[p.name] = p
		return f.serve(p.name, core.NewVariant("proc", p.execute), dynamic)
	}
	fleetNames := names(3)
	var victim *dist.Server[int, int] // r2, killed outright mid-run
	for _, p := range []*simProc{{name: "r1", limit: agingLimit}, {name: "r2"}, {name: "r3", bugAt: bugAt}} {
		srv, err := serve(p, false)
		if err != nil {
			return err
		}
		if p.name == "r2" {
			victim = srv
		}
	}
	// proc resolves a diagnosis target ("replica:<name>/<variant>").
	proc := func(target string) (*simProc, string, error) {
		executor, _, _ := strings.Cut(target, "/")
		name := strings.TrimPrefix(executor, "replica:")
		if p := procs[name]; p != nil {
			return p, name, nil
		}
		return nil, name, fmt.Errorf("control: unknown replica %q in target %q", name, target)
	}

	rc := f.remoteConfig()
	remote, err := dist.NewRemote[int, int]("fleet", rc, f.endpoints(fleetNames)...)
	if err != nil {
		return err
	}
	defer remote.Close()
	e := f.cfg.Executor
	budget := resilience.NewRetryBudget(float64(e.RetryBudget), retryDeposit)
	client, err := pattern.NewSingle[int, int](remote,
		pattern.WithObserver(f.observer),
		pattern.WithRetryPolicy(resilience.RetryPolicy{
			MaxAttempts: retryAttempts,
			BaseBackoff: time.Duration(e.RetryBaseBackoff),
			MaxBackoff:  time.Duration(e.RetryMaxBackoff),
			Jitter:      e.RetryJitter,
			Seed:        f.cfg.Seed,
			Budget:      budget,
		}))
	if err != nil {
		return err
	}

	// The substitute provider the bohrbug escalation draws from: an
	// alternate implementation of the same interface.
	registry := service.NewRegistry()
	calcSig := service.Signature{Name: "calc", Ops: []string{"double"}}
	substitute, err := service.NewSimService("calc-v2", calcSig,
		map[string]func(int) (int, error){"double": func(x int) (int, error) { return 2 * x, nil }})
	if err != nil {
		return err
	}
	if err := registry.Register(substitute, nil); err != nil {
		return err
	}

	// probeRepair verifies a repair by sending the current input straight
	// at the repaired replica. Left to the load balancer, a rejuvenated
	// replica may see no traffic for a long stretch, so whether the repair
	// took — the relapse evidence the bohrbug escalation rides on — would
	// wait on routing luck. The outcome reaches the health engine through
	// the replica server's observer like any other request.
	var lastInput atomic.Int64
	probeRepair := func(ctx context.Context, name string) {
		probe, err := dist.NewRemote[int, int](name+"-probe", dist.RemoteConfig{CallTimeout: rc.CallTimeout}, f.endpoint(name))
		if err != nil {
			return
		}
		defer probe.Close()
		_, _ = probe.Execute(ctx, int(lastInput.Load())) // failure is evidence, not an error
	}

	var killedAt atomic.Pointer[time.Time]
	next := len(fleetNames) + 1
	actuators := map[string]control.Actuator{
		control.ActionReplace: func(_ context.Context, a control.Action) (control.Action, error) {
			name := fmt.Sprintf("r%d", next)
			next++
			// The replacement runs the same software as everyone else:
			// fresh environment, same aging.
			if _, err := serve(&simProc{name: name, limit: agingLimit}, true); err != nil {
				return a, err
			}
			if err := remote.AddEndpoint(f.endpoint(name)); err != nil {
				return a, err
			}
			// Splice-before-retire: the replacement is live before the dead
			// endpoint (and its stragglers) are cut loose.
			if err := remote.RemoveEndpoint(a.Target); err != nil {
				return a, err
			}
			f.detector.Forget(a.Target)
			if killed := killedAt.Load(); killed != nil && f.res.MTTR == 0 {
				f.res.MTTR = time.Since(*killed)
			}
			a.New = name
			return a, nil
		},
		control.ActionHedgeTune: func(_ context.Context, a control.Action) (control.Action, error) {
			d, err := a.HedgeTarget()
			if err == nil {
				remote.SetHedgeAfter(d)
			}
			return a, err
		},
		control.ActionDepositTune: func(_ context.Context, a control.Action) (control.Action, error) {
			rate, err := a.DepositTarget()
			if err == nil {
				budget.SetDepositPerRequest(rate)
			}
			return a, err
		},
		control.ActionRejuvenate: func(ctx context.Context, a control.Action) (control.Action, error) {
			p, name, err := proc(a.Target)
			if err != nil {
				return a, err
			}
			p.served.Store(0) // the aging clock resets; the code, and any bug in it, stays
			// The rollback closes the variant's health epoch: if the failure
			// run ends here, the engine books a rejuvenation recovery — the
			// evidence that earns an aging diagnosis.
			f.observer.Rollback("replica:"+name, 0)
			// The replica is fresh, so evidence against its worn-out past
			// should not keep it dark for another OpenFor.
			rc.Breakers.Reset(name)
			probeRepair(ctx, name)
			return a, nil
		},
		control.ActionSubstitute: func(_ context.Context, a control.Action) (control.Action, error) {
			p, name, err := proc(a.Target)
			if err != nil {
				return a, err
			}
			proxy, err := service.NewProxy(registry, calcSig, 0.5)
			if err != nil {
				return a, err
			}
			p.substitute.Store(proxy)
			rc.Breakers.Reset(name)
			a.New = proxy.Bound()
			return a, nil
		},
	}
	for kind, act := range actuators {
		actuators[kind] = f.acting(act)
	}
	watched := make([]string, maxReplicas)
	for i := range watched {
		watched[i] = fmt.Sprintf("replica:r%d", i+1)
	}
	f.controller = control.New(control.Config{
		Name:              "controller",
		Tick:              100 * time.Millisecond,
		MaxActionsPerKind: 4,
		RateWindow:        2 * time.Second,
		Sources: control.Sources{
			Observed: f.collector.Snapshot,
			SLO:      slo.Snapshot,
			Detector: f.detector.States,
			Evidence: f.detector.Evidence,
			Health:   engine.Snapshot,
			FastBurn: slo.FastBurn,
			P99: func(executor string) time.Duration {
				if h := f.collector.ExecutorLatency(executor); h != nil {
					return h.P99()
				}
				return 0
			},
		},
		Policies: []control.Policy{
			&control.ReplacementPolicy{DeadAfter: heartbeats.DeadAfter, AccuseDeadAfter: 8},
			control.NewTailPolicy(control.TailPolicyConfig{
				Client:     remote.Name(),
				Objective:  clientSLO.Default.Latency,
				MinHedge:   5 * time.Millisecond,
				MaxHedge:   50 * time.Millisecond,
				HedgeAfter: remote.HedgeAfter,
				Deposit:    budget.DepositPerRequest,
			}),
			control.NewDiagnosisPolicy(control.DiagnosisPolicyConfig{
				FailStreakThreshold:     8,
				RelapseLimit:            1,
				RejuvenateCooldownTicks: 5,
				Executors:               watched,
			}),
		},
		Actuators: actuators,
		Observer:  f.observer,
	})
	f.controller.SetEnabled(f.cfg.Control == "on") // the kill switch
	if err := f.launch(ctx, f.controller.AsChild()); err != nil {
		return err
	}

	// Paced so the detector and controller act on wall-clock evidence
	// while the request counter advances.
	for x := 1; x <= n; x++ {
		lastInput.Store(int64(x))
		if x == killAt {
			now := time.Now()
			killedAt.Store(&now)
			victim.Close()
		}
		fault := ""
		if int64(x) >= bugAt {
			fault = "bohr"
		}
		f.call(ctx, client, x, fault, "")
		time.Sleep(time.Millisecond)
	}
	f.stop()
	f.res.HedgeAfter = remote.HedgeAfter()
	f.res.Deposit = budget.DepositPerRequest()
	f.res.Endpoints = remote.Endpoints()
	return nil
}
