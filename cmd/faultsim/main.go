// Command faultsim is an ad-hoc Monte Carlo reliability calculator for
// redundant configurations: pick a pattern, the number of variants, the
// per-variant failure probability (and optionally a failure correlation),
// and compare the simulated reliability against the analytic model.
//
// Usage:
//
//	faultsim -pattern nvp -n 3 -p 0.05
//	faultsim -pattern nvp -n 5 -p 0.1 -rho 0.4
//	faultsim -pattern sequential -n 3 -p 0.2 -trials 100000
//
// With -metrics-addr the run serves the observation endpoints (/metrics,
// /vars, /traces, /healthz) while it executes; with -trace-out it dumps
// the trace ring as JSON at exit, ready for cmd/obsreport. -bohr k makes
// variant k fail deterministically — a Bohrbug to diagnose, next to the
// Heisenbug-like intermittent failures that -p injects.
//
// With -chaos the tool runs a deterministic chaos campaign instead of the
// Monte Carlo estimate: the selected pattern executor is built with the
// full resilience-policy stack (circuit breakers, budgeted backed-off
// retries, a bulkhead, default deadlines, and a last-good degradation
// ladder) and driven through a seeded schedule of error bursts, latency
// spikes, hangs, overload, and correlated failures. -chaos-spec loads the
// schedule from a JSON file (see faultmodel.Campaign); without it a
// built-in schedule derived from -seed runs. -chaos-out writes the
// campaign report as JSON.
//
//	faultsim -chaos -pattern sequential -n 3 -bohr 1
//	faultsim -chaos -chaos-spec campaign.json -chaos-out report.json
//
// With -crash the tool demonstrates crash-safe recovery: a supervised
// worker applies a workload to a durable WAL-backed checkpoint store
// while a seeded schedule kills it mid-stream with panics and crash
// errors. The supervisor restarts it, the store replays the log, and
// the run reports restart counts, measured recovery time (MTTR), and
// whether any acknowledged write was lost (it must never be). -wal-dir
// persists the store across invocations — run it twice to watch the
// second process resume from the first one's acknowledged state.
//
//	faultsim -crash
//	faultsim -crash -wal-dir /tmp/faultsim-wal -seed 7
//
// With -net the tool stands up a three-replica fleet behind the framed
// RPC transport — supervised accept loops, heartbeat failure detector,
// hedged remote variants under a parallel-selection executor — and
// drives a workload over a clean in-memory network. -net-chaos runs the
// same fleet with every dial path wrapped in a seeded network-fault
// campaign (partition of one replica, packet loss, duplication,
// reordering, latency spikes, connection resets) and tabulates
// availability, tail latency, hedge wins, and the detector's verdicts.
// -net-spec loads the campaign from a JSON file (see
// faultmodel.NetworkCampaign); without it a built-in schedule derived
// from -seed partitions replica r2.
//
//	faultsim -net
//	faultsim -net-chaos -seed 7
//	faultsim -net-chaos -net-spec campaign.json
//
// With -adversary the tool stands up a 2k+1 quorum fleet (-replicas n,
// default 5) where the named number of replicas are Byzantine liars —
// they execute correctly, ack every heartbeat, and return a plausible
// wrong answer according to the chosen strategy (always, intermittent,
// or collude: same inputs, same lie). A QuorumVariant majority-votes
// every request across the whole fleet; the run reports availability,
// wrong answers served (must be zero while liars <= k), outvoted
// replies, and the failure detector's conviction TPR/FPR against the
// seeded ground truth.
//
//	faultsim -adversary always:1
//	faultsim -adversary collude:2 -replicas 5 -seed 7
//	faultsim -adversary intermittent:2 -campaign-out runs/
//
// With -control the tool runs the autonomic control-plane experiment
// (E28): a three-replica fleet that accumulates an aging replica, an
// outright process death, and a deterministic bohrbug over the course
// of the workload. -control on closes the loop — the controller
// replaces the dead replica, rejuvenates the aging one, substitutes the
// buggy one, and retunes the tail knobs; -control off runs the
// identical fleet with the controller frozen behind its kill switch, so
// the pair demonstrates exactly what the loop buys.
//
//	faultsim -control on
//	faultsim -control off -seed 7 -campaign-out runs/
//
// With -gray the tool runs the gray-failure experiment (E29): a
// three-replica fleet whose configured primary turns fail-slow mid-run
// — heartbeats ack on time, every answer is correct, but service is
// 20× slower. -gray off runs the unmitigated arm (no hedging, no
// ejector: the fleet p99 inflates by the full limp factor); -gray on
// runs the same fault against the mitigation stack — hedged requests,
// latency-outlier ejection with probation and reinstatement, and the
// gray-failure rejuvenation policy. -gray-spec picks the limp profile
// (see faultmodel.ParseFailSlowSpec).
//
//	faultsim -gray off
//	faultsim -gray on -gray-spec constant:20 -seed 7 -campaign-out runs/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/nvp"
	"github.com/softwarefaults/redundancy/internal/scenario"
	"github.com/softwarefaults/redundancy/internal/stats"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	var (
		patternName = fs.String("pattern", "nvp", "pattern: single, nvp, selection, sequential")
		n           = fs.Int("n", 3, "number of variants")
		p           = fs.Float64("p", 0.05, "per-variant failure probability")
		rho         = fs.Float64("rho", 0, "failure correlation (nvp only)")
		trials      = fs.Int("trials", 50000, "Monte Carlo trials")
		seed        = fs.Uint64("seed", 1, "deterministic seed (echoed in the output for reproducibility)")
		metricsAddr = fs.String("metrics-addr", "", "serve live observation metrics on this address while the simulation runs (e.g. :9090; endpoints /metrics, /vars, /traces, /healthz, /slo)")
		pprofFlag   = fs.Bool("pprof", false, "also mount net/http/pprof profiling endpoints under /debug/pprof/ on -metrics-addr")
		traceOut    = fs.String("trace-out", "", "write the recorded trace ring as JSON to this file at exit (analyze with obsreport)")
		bohr        = fs.Int("bohr", 0, "make variant k fail deterministically (detected patterns only; a Bohrbug for the diagnosis layer to label)")
		chaos       = fs.Bool("chaos", false, "run a deterministic chaos campaign against the resilience-hardened executor instead of the Monte Carlo estimate")
		chaosSpec   = fs.String("chaos-spec", "", "JSON campaign spec file for -chaos (default: built-in schedule derived from -seed)")
		chaosOut    = fs.String("chaos-out", "", "write the -chaos campaign report as JSON to this file")
		crash       = fs.Bool("crash", false, "run the crash-recovery demo: a supervised WAL-backed worker killed mid-workload by a seeded schedule")
		walDir      = fs.String("wal-dir", "", "durable store directory for -crash (default: a temp dir discarded at exit; set it to persist state across runs)")
		netMode     = fs.Bool("net", false, "run the distributed replica fleet over a clean in-memory network")
		netChaos    = fs.Bool("net-chaos", false, "run the distributed replica fleet under a seeded network-fault campaign")
		netSpec     = fs.String("net-spec", "", "JSON network campaign spec file for -net-chaos (default: built-in schedule derived from -seed)")
		netRequests = fs.Int("net-requests", 1500, "workload size for -net (ignored by -net-chaos, which runs the campaign's wall-clock schedule)")
		adversary   = fs.String("adversary", "", "run the Byzantine quorum fleet under a lying-replica adversary: strategy[:count] with strategy always, intermittent, or collude (e.g. -adversary collude:2)")
		replicas    = fs.Int("replicas", 5, "quorum fleet size for -adversary (needs 2k+1 replicas to tolerate k liars)")
		control     = fs.String("control", "", "run the autonomic control-plane fleet (E28): 'on' closes the loop, 'off' runs the same fleet with the controller frozen by the kill switch")
		gray        = fs.String("gray", "", "run the gray-failure fleet (E29): 'on' arms the mitigation stack (hedging, latency-outlier ejection, rejuvenation policy), 'off' runs the same fail-slow fault unmitigated")
		graySpec    = fs.String("gray-spec", "constant:20", "fail-slow fault spec for -gray: profile[:factor] with profile constant, progressive, or bursts")

		campaignOut  = fs.String("campaign-out", "", "record this invocation as a run document in this experiment-store directory (inspect with cmd/campaign: list, show, diff, replay)")
		campaignName = fs.String("campaign-name", "", "run name stored with -campaign-out")
		campaignRows = fs.Bool("campaign-trials", true, "store per-trial rows with -campaign-out (false: aggregates only, for committed baselines)")
		configOut    = fs.String("config-out", "", "write the fully resolved run configuration as JSON to this file and continue")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *p < 0 || *p > 1 || *rho < 0 || *rho > 1 || *trials < 1 {
		return fmt.Errorf("invalid parameters: n=%d p=%f rho=%f trials=%d", *n, *p, *rho, *trials)
	}
	if *bohr < 0 || *bohr > *n {
		return fmt.Errorf("invalid -bohr %d: want a variant index in 1..%d (0 disables)", *bohr, *n)
	}

	// Span IDs derive from the run seed so repeated runs export
	// byte-comparable trace files.
	redundancy.SeedTraceIDs(*seed)

	var observer redundancy.Observer
	if *metricsAddr != "" || *traceOut != "" {
		collector := redundancy.NewCollector()
		traces := redundancy.NewTraceRecorder(1024)
		engine := redundancy.NewHealthEngine(redundancy.HealthConfig{})
		slo := redundancy.NewSLOTracker(redundancy.SLOConfig{})
		engine.AttachSLO(slo) // burn-rate breaches degrade /healthz
		observer = redundancy.CombineObservers(collector, traces, engine, slo)
		if *metricsAddr != "" {
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				return fmt.Errorf("metrics listener: %w", err)
			}
			defer ln.Close()
			extras := []redundancy.ObservationEndpoint{engine.Extra(), slo.Extra()}
			if *pprofFlag {
				extras = append(extras, redundancy.PprofEndpoints()...)
			}
			srv := &http.Server{Handler: redundancy.ObservationHandler(collector, traces, extras...)}
			go func() { _ = srv.Serve(ln) }()
			defer srv.Close()
			fmt.Printf("serving metrics on http://%s/metrics\n", ln.Addr())
		}
		if *traceOut != "" {
			defer func() { dumpTraces(traces, *traceOut) }()
		}
	} else if *pprofFlag {
		return fmt.Errorf("-pprof requires -metrics-addr")
	}

	set := recorderSettings{
		storeDir:   *campaignOut,
		name:       *campaignName,
		configOut:  *configOut,
		dropTrials: !*campaignRows,
	}

	if *crash {
		if set.active() {
			return fmt.Errorf("-campaign-out/-config-out do not support -crash (its unit of work is a restart, not a request)")
		}
		return runCrash(*seed, *walDir, observer)
	}

	// The distributed fleet modes: validate, resolve the Config, run.
	var fleet *campaign.Config
	switch {
	case *adversary != "":
		if _, _, err := redundancy.ParseAdversarySpec(*adversary); err != nil {
			return err
		}
		if *replicas < 3 {
			return fmt.Errorf("invalid -replicas %d: a quorum needs at least 3", *replicas)
		}
		cfg := scenario.QuorumConfig(*seed, *replicas, *adversary, *netRequests)
		fleet = &cfg
	case *control != "":
		if *control != "on" && *control != "off" {
			return fmt.Errorf("invalid -control %q: want on or off", *control)
		}
		cfg := scenario.ControlConfig(*seed, *netRequests, *control == "on")
		fleet = &cfg
	case *gray != "":
		if *gray != "on" && *gray != "off" {
			return fmt.Errorf("invalid -gray %q: want on or off", *gray)
		}
		cfg := scenario.GrayConfig(*seed, *netRequests, *gray == "on", *graySpec)
		fleet = &cfg
	case *netMode || *netChaos:
		var camp *redundancy.NetworkCampaign
		if *netChaos {
			if *netSpec != "" {
				data, err := os.ReadFile(*netSpec)
				if err != nil {
					return fmt.Errorf("net spec: %w", err)
				}
				if camp, err = redundancy.ParseNetworkCampaign(data); err != nil {
					return err
				}
			} else {
				camp = redundancy.DefaultNetworkCampaign(*seed, scenario.NetVictim)
			}
		}
		cfg := scenario.NetConfig(*seed, camp, *netRequests)
		fleet = &cfg
	}
	if fleet != nil {
		if *netRequests < 1 {
			return fmt.Errorf("invalid -net-requests %d", *netRequests)
		}
		return runFleet(*fleet, observer, *traceOut, set)
	}

	if *chaos {
		var camp *faultmodel.Campaign
		if *chaosSpec != "" {
			data, err := os.ReadFile(*chaosSpec)
			if err != nil {
				return fmt.Errorf("chaos spec: %w", err)
			}
			if camp, err = faultmodel.ParseCampaign(data); err != nil {
				return err
			}
		} else {
			camp = faultmodel.DefaultCampaign(*seed)
		}
		chaosCfg := resolvedChaosConfig(*patternName, *n, *bohr, camp)
		if err := set.echo(chaosCfg); err != nil {
			return err
		}
		rec := set.recorder(chaosCfg.Seed)
		return runChaos(*patternName, *n, *bohr, camp, *chaosOut, observer, rec, set, chaosCfg)
	}

	simCfg := resolvedSimConfig(*patternName, *n, *p, *rho, *trials, *seed, *bohr)
	if err := set.echo(simCfg); err != nil {
		return err
	}
	rec := set.recorder(simCfg.Seed)

	tbl := stats.NewTable(
		fmt.Sprintf("Reliability of %s (n=%d, p=%.3f, rho=%.2f, %d trials)",
			*patternName, *n, *p, *rho, *trials),
		"measure", "value")
	tbl.AddRow("seed", *seed)

	switch *patternName {
	case "nvp":
		law := faultmodel.CorrelatedFailures{N: *n, P: *p, Rho: *rho}
		ens, err := nvp.NewEnsemble(law, xrand.New(*seed))
		if err != nil {
			return err
		}
		ok := 0
		for i := 0; i < *trials; i++ {
			start := time.Now()
			_, correct := ens.Round(1)
			if correct {
				ok++
			}
			if rec != nil {
				rec.begin(i)
				var roundErr error
				if !correct {
					roundErr = fmt.Errorf("voted output incorrect")
				}
				rec.finish(i, roundErr, time.Since(start))
			}
		}
		prop, err := stats.NewProportion(ok, *trials)
		if err != nil {
			return err
		}
		tbl.AddRow("simulated reliability", prop.Estimate)
		tbl.AddRow("95% interval", fmt.Sprintf("[%.4f, %.4f]", prop.Lo, prop.Hi))
		tbl.AddRow("analytic reliability", nvp.ReliabilityCorrelated(*n, *p, *rho))
		tbl.AddRow("single-version baseline", 1-*p)
		tbl.AddRow("tolerable faults k", redundancy.TolerableFaults(*n))
	case "single", "selection", "sequential":
		ok, execs, err := simulateDetected(*patternName, *n, *p, *trials, *seed, *bohr, observer, rec)
		if err != nil {
			return err
		}
		prop, err := stats.NewProportion(ok, *trials)
		if err != nil {
			return err
		}
		tbl.AddRow("simulated reliability", prop.Estimate)
		tbl.AddRow("95% interval", fmt.Sprintf("[%.4f, %.4f]", prop.Lo, prop.Hi))
		analytic := 1 - *p
		if *patternName != "single" {
			analytic = 1 - pow(*p, *n)
		}
		tbl.AddRow("analytic reliability", analytic)
		tbl.AddRow("mean executions/request", execs)
	default:
		return fmt.Errorf("unknown pattern %q", *patternName)
	}
	fmt.Println(tbl)
	if rec != nil {
		return saveRecordedRun(set, simCfg, rec.seedResult(nil))
	}
	return nil
}

// simulateDetected runs the detected-failure patterns (failures are
// errors, not wrong values). A non-nil observer is attached to the
// executor so a live metrics endpoint can watch the run. Variant bohr
// (1-based; 0 disables) fails deterministically instead of randomly.
// A non-nil rec records per-trial rows (-campaign-out).
func simulateDetected(patternName string, n int, p float64, trials int, seed uint64, bohr int, observer redundancy.Observer, rec *runRecorder) (ok int, execsPerReq float64, err error) {
	master := xrand.New(seed)
	mk := func(i int) redundancy.Variant[int, int] {
		rng := master.Split()
		deterministic := i == bohr
		v := redundancy.NewVariant(fmt.Sprintf("v%d", i), func(_ context.Context, x int) (int, error) {
			if deterministic {
				if rec != nil {
					rec.noteFaultHere("bohr")
				}
				return 0, fmt.Errorf("deterministic failure")
			}
			if rng.Bool(p) {
				if rec != nil {
					rec.noteFaultHere("heisen")
				}
				return 0, fmt.Errorf("variant failure")
			}
			return x, nil
		})
		if rec != nil {
			return spyVariant{v, rec}
		}
		return v
	}
	var m redundancy.Metrics
	opts := []redundancy.PatternOption{redundancy.WithMetrics(&m)}
	if observer != nil {
		opts = append(opts, redundancy.WithObserver(observer))
	}
	exec, err := detectedPattern(patternName, n, mk, opts)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	for i := 0; i < trials; i++ {
		if rec != nil {
			rec.begin(i)
		}
		start := time.Now()
		_, execErr := exec.Execute(ctx, i)
		if execErr == nil {
			ok++
		}
		if rec != nil {
			rec.finish(i, execErr, time.Since(start))
		}
	}
	return ok, m.Snapshot().ExecutionsPerRequest(), nil
}

// detectedPattern builds the named detected-failure pattern (single,
// sequential, or selection) over variants mk(1)..mk(n), each of which
// accepts any answer.
func detectedPattern(patternName string, n int, mk func(int) redundancy.Variant[int, int], opts []redundancy.PatternOption) (redundancy.Executor[int, int], error) {
	accept := func(_ int, _ int) error { return nil }
	vs := make([]redundancy.Variant[int, int], n)
	tests := make([]redundancy.AcceptanceTest[int, int], n)
	switch patternName {
	case "single":
		return redundancy.NewSingle(mk(1), opts...)
	case "sequential":
		for i := range vs {
			vs[i] = mk(i + 1)
		}
		return redundancy.NewSequentialAlternatives(vs, accept, nil, opts...)
	case "selection":
		for i := range vs {
			vs[i], tests[i] = mk(i+1), accept
		}
		ps, err := redundancy.NewParallelSelection(vs, tests, opts...)
		if err != nil {
			return nil, err
		}
		return redundancy.ExecutorFunc[int, int](func(ctx context.Context, x int) (int, error) {
			defer ps.Reset() // failures are transient in this model
			return ps.Execute(ctx, x)
		}), nil
	}
	return nil, fmt.Errorf("pattern %q: want single, sequential, or selection", patternName)
}

// runChaos drives a resilience-hardened executor through the campaign.
// Variants succeed unless the campaign disturbs them (or -bohr marks one
// as deterministically broken — the breaker should open on it). The
// executor carries the full policy stack so the report shows breakers
// opening, overload being shed, and the degradation ladder serving.
func runChaos(patternName string, n, bohr int, camp *faultmodel.Campaign, outPath string, extra redundancy.Observer, rec *runRecorder, set recorderSettings, cfg campaign.Config) error {
	collector := redundancy.NewCollector()
	observer := redundancy.CombineObservers(collector, extra)

	var variantNames []string
	mk := func(i int) redundancy.Variant[int, int] {
		deterministic := i == bohr
		name := fmt.Sprintf("v%d", i)
		variantNames = append(variantNames, name)
		base := redundancy.NewVariant(name, func(_ context.Context, x int) (int, error) {
			if deterministic {
				return 0, fmt.Errorf("deterministic failure")
			}
			return x, nil
		})
		var v redundancy.Variant[int, int] = &faultmodel.Chaos[int, int]{Base: base, Campaign: camp}
		if rec != nil {
			v = spyVariant{v, rec}
		}
		return v
	}
	ladder := redundancy.NewFallbackLadder[int, int]().CacheLastGood()
	opts := []redundancy.PatternOption{
		redundancy.WithObserver(observer),
		redundancy.WithBreaker(redundancy.NewBreakers(redundancy.BreakerConfig{
			ConsecutiveFailures: 5,
			OpenFor:             100 * time.Millisecond,
		})),
		redundancy.WithRetryPolicy(redundancy.RetryPolicy{
			BaseBackoff: 100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Jitter:      0.5,
			Seed:        camp.Seed,
			Budget:      redundancy.NewRetryBudget(100, 1),
		}),
		redundancy.WithBulkhead(redundancy.NewBulkhead(redundancy.BulkheadConfig{
			MaxConcurrent: 16,
			MaxWaiting:    16,
		})),
		redundancy.WithDeadline(250*time.Millisecond, 20*time.Millisecond),
		redundancy.WithFallback(ladder),
	}

	exec, err := detectedPattern(patternName, n, mk, opts)
	if err != nil {
		return err
	}

	if rec != nil {
		// Recording middleware: one row per scheduled request, with the
		// schedule's own disturbances as ground truth (a masked fault is
		// still an injected fault). The spy-wrapped variants fill in
		// detection and attribution.
		inner := exec
		exec = redundancy.ExecutorFunc[int, int](func(ctx context.Context, x int) (int, error) {
			req, _ := faultmodel.RequestIndexFrom(ctx)
			i := int(req)
			rec.begin(i)
			for _, name := range variantNames {
				for _, label := range camp.DisturbedAt(req, name) {
					rec.noteFault(i, label)
				}
			}
			start := time.Now()
			out, execErr := inner.Execute(ctx, x)
			rec.finish(i, execErr, time.Since(start))
			return out, execErr
		})
	}

	rep, err := faultmodel.RunCampaign(context.Background(), camp, exec,
		func(req uint64) int { return int(req) }, collector)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote campaign report to %s\n", outPath)
	}
	if rec != nil {
		return saveRecordedRun(set, cfg, rec.seedResult(collector.Snapshot()))
	}
	return nil
}

// crashState is the durable state of the -crash demo worker.
type crashState struct {
	Sum   int64
	Count int
}

// runCrash drives a supervised worker over a durable WAL-backed store
// through a seeded kill schedule (panics and crash errors mid-workload)
// and reports restarts, measured MTTR, and acknowledged-write safety.
// With a persistent walDir the workload resumes where the previous
// invocation left off.
func runCrash(seed uint64, walDir string, extra redundancy.Observer) error {
	if walDir == "" {
		dir, err := os.MkdirTemp("", "faultsim-crash-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}
	collector := redundancy.NewCollector()
	observer := redundancy.CombineObservers(collector, extra)

	camp := faultmodel.RecoveryCampaign(seed)
	total := camp.Total()
	apply := func(s crashState, op int) (crashState, error) {
		return crashState{Sum: s.Sum + int64(op), Count: s.Count + 1}, nil
	}

	var (
		runner  *redundancy.DurableRunner[crashState, int]
		resumed = -1 // ops already in the store at process start
		next    int
		acked   int
		fired   = make(map[int]bool)
		panics  int
		crashes int
		unsafe  bool // an acknowledged write went missing after a restart
	)
	sup := redundancy.NewSupervisor(redundancy.SupervisorOptions{
		Name:      "faultsim-crash",
		Intensity: redundancy.RestartIntensity{MaxRestarts: total, Window: time.Minute},
		Observer:  collector,
	})
	err := sup.Add(redundancy.ChildSpec{
		Name:    "worker",
		Restart: redundancy.RestartTransient,
		Init: func(context.Context) error {
			r, err := redundancy.OpenDurableRunner(walDir, crashState{}, apply,
				redundancy.DurableOptions{Name: "faultsim-worker", SnapshotInterval: 64, Observer: observer})
			if err != nil {
				return err
			}
			if resumed < 0 {
				resumed = r.State().Count
				acked = resumed
			} else if r.State().Count != acked {
				unsafe = true
			}
			runner = r
			next = acked
			return nil
		},
		Run: func(ctx context.Context) error {
			for next < total {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				req := uint64(next)
				if !fired[next] && camp.PanicAt(req, "worker") {
					fired[next] = true
					panics++
					panic(fmt.Sprintf("scheduled panic at op %d", next))
				}
				if !fired[next] && camp.CrashAt(req, "worker") {
					fired[next] = true
					crashes++
					return fmt.Errorf("scheduled kill at op %d: %w", next, faultmodel.ErrCrashed)
				}
				if _, err := runner.Step(int(req % 97)); err != nil {
					return err
				}
				acked++
				next++
			}
			return runner.Close()
		},
	})
	if err != nil {
		return err
	}
	if err := sup.Serve(context.Background()); err != nil {
		return err
	}

	// Restarts and MTTR accrue on the supervisor's executor; checkpoint
	// and replay counts on the durable store's.
	var snap, store redundancy.ExecutorObservation
	for _, e := range collector.Snapshot() {
		switch e.Executor {
		case "faultsim-crash":
			snap = e
		case "faultsim-worker":
			store = e
		}
	}
	tbl := stats.NewTable(
		fmt.Sprintf("Crash-safe recovery (seed %d, store %s)", seed, walDir),
		"measure", "value")
	tbl.AddRow("workload ops", total)
	tbl.AddRow("resumed from previous run (ops)", resumed)
	tbl.AddRow("kills: panics", panics)
	tbl.AddRow("kills: crash errors", crashes)
	tbl.AddRow("supervised restarts", snap.Restarts)
	tbl.AddRow("WAL replays", store.WALReplays)
	tbl.AddRow("checkpoints taken", store.Checkpoints)
	tbl.AddRow("acknowledged writes lost", boolWord(unsafe, "YES — BUG", "none"))
	if snap.MTTR.Count > 0 {
		tbl.AddRow("recovery time p50", snap.MTTR.P50)
		tbl.AddRow("recovery time p99", snap.MTTR.P99)
		tbl.AddRow("recovery time mean", snap.MTTR.Mean)
	}
	fmt.Println(tbl)
	return nil
}

func boolWord(v bool, yes, no string) string {
	if v {
		return yes
	}
	return no
}

// dumpTraces writes the trace ring as JSON; runs deferred, so failures
// are reported rather than returned.
func dumpTraces(traces *redundancy.TraceRecorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim: trace-out:", err)
		return
	}
	defer f.Close()
	if err := traces.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim: trace-out:", err)
		return
	}
	fmt.Printf("wrote traces to %s\n", path)
}

func pow(b float64, e int) float64 {
	out := 1.0
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
