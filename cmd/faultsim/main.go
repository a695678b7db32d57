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
// Monte Carlo estimate: the selected pattern executor (sequential unless
// -pattern names single or selection) is built with the full
// resilience-policy stack (circuit breakers, budgeted backed-off
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
// The Monte Carlo and -chaos modes resolve their flags to a
// campaign.Config and run it through internal/campaign's seed runner,
// the one `campaign run` and `campaign replay` use.
//
// With -crash the tool demonstrates crash-safe recovery: a supervised
// worker applies a workload to a durable WAL-backed checkpoint store
// while a seeded schedule kills it mid-stream with panics and crash
// errors. The supervisor restarts it, the store replays the log, and
// the run reports restart counts, measured recovery time (MTTR), and
// whether any acknowledged write was lost (it must never be). The worker
// is experiment E23's (sim.RunCrashWorker). -wal-dir
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

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/nvp"
	"github.com/softwarefaults/redundancy/internal/scenario"
	"github.com/softwarefaults/redundancy/internal/sim"
	"github.com/softwarefaults/redundancy/internal/stats"
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
		patternName = fs.String("pattern", "nvp", "pattern: single, nvp, selection, sequential (-chaos: default sequential, no nvp)")
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

	// The Monte Carlo and chaos modes: resolve the Config and run it
	// through the campaign seed runner.
	var cfg campaign.Config
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
		pattern := *patternName
		if !flagSet(fs, "pattern") {
			pattern = campaign.DefaultChaosPattern
		}
		cfg = resolvedChaosConfig(pattern, *n, *bohr, camp)
	} else {
		cfg = resolvedSimConfig(*patternName, *n, *p, *rho, *trials, *seed, *bohr)
	}
	if err := campaign.CheckPattern(cfg.Mode, cfg.Pattern); err != nil {
		return err
	}
	if err := set.echo(cfg); err != nil {
		return err
	}
	collector := redundancy.NewCollector()
	res, rep, err := campaign.RunSeed(context.Background(), cfg,
		redundancy.CombineObservers(collector, observer), nil)
	if err != nil {
		return err
	}
	observed := collector.Snapshot()
	if rep != nil {
		rep.Observed, res.Aggregates.Observed = observed, observed
		if err := printChaos(rep, *chaosOut); err != nil {
			return err
		}
	} else {
		fmt.Println(simTable(cfg, res, observed))
	}
	if set.storeDir != "" {
		return saveRecordedRun(set, cfg, res)
	}
	return nil
}

// flagSet reports whether the command line set the named flag.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// simTable renders a Monte Carlo run next to the analytic model.
func simTable(cfg campaign.Config, res campaign.SeedResult, observed []redundancy.ExecutorObservation) *stats.Table {
	tbl := stats.NewTable(
		fmt.Sprintf("Reliability of %s (n=%d, p=%.3f, rho=%.2f, %d trials)",
			cfg.Pattern, cfg.Variants, cfg.FailureP, cfg.Rho, cfg.Trials),
		"measure", "value")
	tbl.AddRow("seed", cfg.Seed)
	d := res.Aggregates.Deterministic
	tbl.AddRow("simulated reliability", d.Availability)
	tbl.AddRow("95% interval", fmt.Sprintf("[%.4f, %.4f]", d.AvailabilityLo, d.AvailabilityHi))
	n, p := cfg.Variants, cfg.FailureP
	switch cfg.Pattern {
	case "nvp":
		tbl.AddRow("analytic reliability", nvp.ReliabilityCorrelated(n, p, cfg.Rho))
		tbl.AddRow("single-version baseline", 1-p)
		tbl.AddRow("tolerable faults k", redundancy.TolerableFaults(n))
	default:
		analytic := 1 - p
		if cfg.Pattern != "single" {
			analytic = 1 - pow(p, n)
		}
		tbl.AddRow("analytic reliability", analytic)
		var requests, executions int64
		for _, e := range observed {
			requests += e.Requests
			for _, v := range e.Variants {
				executions += v.Executions
			}
		}
		tbl.AddRow("mean executions/request", float64(executions)/float64(max(requests, 1)))
	}
	return tbl
}

// printChaos prints a chaos run's phase table and writes it to outPath
// as JSON, when set.
func printChaos(rep *faultmodel.CampaignReport, outPath string) error {
	fmt.Print(rep.String())
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote campaign report to %s\n", outPath)
	return nil
}

// runCrash runs the E23 crash worker over walDir (a temp dir discarded
// at exit when empty) and reports restarts, measured MTTR, and
// acknowledged-write safety. With a persistent walDir the workload
// resumes where the previous invocation left off.
func runCrash(seed uint64, walDir string, observer redundancy.Observer) error {
	if walDir == "" {
		dir, err := os.MkdirTemp("", "faultsim-crash-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}
	run, err := sim.RunCrashWorker(context.Background(), seed, walDir, observer)
	if err != nil {
		return err
	}
	sup := run.Supervisor
	tbl := stats.NewTable(
		fmt.Sprintf("Crash-safe recovery (seed %d, store %s)", seed, walDir),
		"measure", "value")
	tbl.AddRow("workload ops", run.Ops)
	tbl.AddRow("resumed from previous run (ops)", run.Resumed)
	tbl.AddRow("kills: panics", run.Panics)
	tbl.AddRow("kills: crash errors", run.Crashes)
	tbl.AddRow("supervised restarts", sup.Restarts)
	tbl.AddRow("WAL replays", run.Store.WALReplays)
	tbl.AddRow("checkpoints taken", run.Store.Checkpoints)
	tbl.AddRow("acknowledged writes lost", boolWord(run.Lost, "YES — BUG", "none"))
	if sup.MTTR.Count > 0 {
		tbl.AddRow("recovery time p50", sup.MTTR.P50)
		tbl.AddRow("recovery time p99", sup.MTTR.P99)
		tbl.AddRow("recovery time mean", sup.MTTR.Mean)
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
