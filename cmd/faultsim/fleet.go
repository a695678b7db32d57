package main

// The distributed fleet modes (-net, -net-chaos, -adversary, -control,
// -gray) share one path: the flags resolve to a campaign.Config,
// internal/scenario builds and drives the fleet that Config describes,
// and the mode's stats table is printed from the Result.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/scenario"
	"github.com/softwarefaults/redundancy/internal/stats"
)

// runFleet runs one fleet scenario, prints its table, and records it.
// With traceOut set on the net fleet every replica server records its
// own spans, exported to <traceOut base>-<name>.json — one file per
// process, as a real fleet would ship them, ready for `obsreport
// assemble` (the client's spans land in traceOut itself).
func runFleet(cfg campaign.Config, observer redundancy.Observer, traceOut string, set recorderSettings) error {
	if err := set.echo(cfg); err != nil {
		return err
	}
	opts := scenario.Options{Observer: observer}
	replicaTraces := map[string]*redundancy.TraceRecorder{}
	if traceOut != "" && cfg.Mode == "net" {
		opts.ReplicaObserver = func(name string) redundancy.Observer {
			replicaTraces[name] = redundancy.NewTraceRecorder(4096)
			return replicaTraces[name]
		}
	}
	res, err := scenario.Run(context.Background(), cfg, opts)
	if err != nil {
		return err
	}
	for _, name := range res.Replicas {
		if rec := replicaTraces[name]; rec != nil {
			dumpTraces(rec, strings.TrimSuffix(traceOut, ".json")+"-"+name+".json")
		}
	}
	fmt.Println(fleetTable(cfg, res))
	if set.storeDir != "" {
		return saveRecordedRun(set, cfg, res.SeedResult(cfg.Seed))
	}
	return nil
}

// fleetTable renders a fleet run's stats table.
func fleetTable(cfg campaign.Config, res *scenario.Result) *stats.Table {
	requests := len(res.Trials)
	var tbl *stats.Table
	// head adds the rows every table shares, after mode-specific ones.
	head := func(served string) {
		tbl.AddRow("requests", requests)
		tbl.AddRow(served, res.Served)
		tbl.AddRow("availability", fmt.Sprintf("%.4f", float64(res.Served)/float64(max(requests, 1))))
	}
	latency := func() {
		if requests > 0 {
			tbl.AddRow("latency p50", res.P50.Round(time.Microsecond))
			tbl.AddRow("latency p99", res.P99.Round(time.Microsecond))
		}
	}
	var total redundancy.ExecutorObservation
	for _, s := range res.Observed {
		total.Hedges += s.Hedges
		total.HedgeWins += s.HedgeWins
		total.ReplicaSuspects += s.ReplicaSuspects
		total.ReplicaDeaths += s.ReplicaDeaths
		total.QuorumsReached += s.QuorumsReached
		total.VoteDisagreement += s.VoteDisagreement
		total.ReplicasOutvoted += s.ReplicasOutvoted
		total.Ejections += s.Ejections
		total.ProbeLaunches += s.ProbeLaunches
	}
	replicas := strings.Join(res.Replicas, ", ")

	switch cfg.Mode {
	case "net":
		camp := cfg.Network
		title := fmt.Sprintf("Distributed replica fleet (clean network, seed %d)", cfg.Seed)
		if camp != nil {
			title = fmt.Sprintf("Distributed replica fleet under %q network chaos (seed %d)", camp.Name, cfg.Seed)
		}
		tbl = stats.NewTable(title, "measure", "value")
		tbl.AddRow("replicas", replicas)
		if camp != nil {
			phases := make([]string, len(camp.Phases))
			for i, p := range camp.Phases {
				phases[i] = p.Name
			}
			tbl.AddRow("campaign phases", strings.Join(phases, " → "))
			tbl.AddRow("campaign duration", camp.Total())
		}
		head("served")
		latency()
		tbl.AddRow("hedges launched", total.Hedges)
		tbl.AddRow("hedges won", total.HedgeWins)
		tbl.AddRow("replica suspicions", total.ReplicaSuspects)
		tbl.AddRow("replica deaths", total.ReplicaDeaths)
		peak := scenario.Phase{PeakBurnOn: "none"}
		for _, p := range res.Phases {
			if p.PeakBurn > peak.PeakBurn {
				peak = p
			}
		}
		tbl.AddRow("SLO fast-burn peak", fmt.Sprintf("%.1f on %s (threshold 14.4)", peak.PeakBurn, peak.PeakBurnOn))
		victim := "via-" + scenario.NetVictim
		tbl.AddRow("SLO fast-burn final ("+victim+")", fmt.Sprintf("%.1f", res.SLO.FastBurn(victim)))
		tbl.AddRow("SLO breaching at exit", boolWord(res.SLO.Breaching(), "YES", "no"))
		tbl.AddRow("final membership", membership(res, false))

	case "quorum":
		strategy, liars, _ := redundancy.ParseAdversarySpec(cfg.Adversary)
		tbl = stats.NewTable(fmt.Sprintf("Byzantine quorum fleet (n=%d, k=%d, adversary %s:%d, seed %d)",
			cfg.Replicas, redundancy.TolerableFaults(cfg.Replicas), strategy, liars, cfg.Seed), "measure", "value")
		tbl.AddRow("replicas", replicas)
		tbl.AddRow("liars", liars)
		head("served correctly")
		outvoted := 0
		for _, t := range res.Trials {
			if t.Detected {
				outvoted++
			}
		}
		tbl.AddRow("requests attacked", res.Attacked)
		tbl.AddRow("wrong answers outvoted", outvoted)
		tbl.AddRow("wrong answers accepted", res.Wrong)
		latency()
		tbl.AddRow("quorum verdicts", total.QuorumsReached)
		tbl.AddRow("vote disagreements", total.VoteDisagreement)
		tbl.AddRow("replica replies outvoted", total.ReplicasOutvoted)
		members := make([]string, len(res.Members))
		evidence := make([]string, len(res.Members))
		for i, m := range res.Members {
			mark := ""
			if i < liars {
				mark = "*"
			}
			members[i] = fmt.Sprintf("%s%s=%s", m.Name, mark, m.State)
			evidence[i] = fmt.Sprintf("%s=%d/%d", m.Name, m.Accusations, m.Misses)
		}
		tbl.AddRow("final membership (* = liar)", strings.Join(members, " "))
		// Accusations are the quorum's outvote reports (the track that
		// convicts a liar, which acks every heartbeat); misses are
		// heartbeat silence.
		tbl.AddRow("evidence (accusations/misses)", strings.Join(evidence, " "))
		c := res.Conviction
		tbl.AddRow("conviction TPR", fmt.Sprintf("%.2f (%d/%d liars convicted)", c.TPR, c.ConvictedLiars, c.Liars))
		tbl.AddRow("conviction FPR", fmt.Sprintf("%.2f (%d/%d honest convicted)", c.FPR, c.ConvictedHonest, c.Honest))

	case "control":
		on := cfg.Control == "on"
		tbl = stats.NewTable(fmt.Sprintf("Autonomic control plane, %s arm (seed %d)",
			map[bool]string{true: "controlled", false: "static"}[on], cfg.Seed), "measure", "value")
		tbl.AddRow("configuration", map[bool]string{true: "autonomic (controller live)", false: "static (controller frozen)"}[on])
		tbl.AddRow("replicas (initial)", replicas)
		tbl.AddRow("fault schedule", res.Fault)
		head("served")
		// Every executor shares the fleet's default objective.
		if slo := res.SLO.Snapshot(); len(slo) > 0 {
			tbl.AddRow("SLO objective", fmt.Sprintf("%.3f within %s", slo[0].Objective.Target, slo[0].Objective.Latency))
		}
		latency()
		actions := "none"
		if len(res.Actions) > 0 {
			kinds := make([]string, 0, len(res.Actions))
			for kind, n := range res.Actions {
				kinds = append(kinds, fmt.Sprintf("%s=%d", kind, n))
			}
			sort.Strings(kinds)
			actions = strings.Join(kinds, " ")
		}
		tbl.AddRow("controller actions", actions)
		tbl.AddRow("actions suppressed (rate limit)", res.Suppressed)
		if res.MTTR > 0 {
			tbl.AddRow("replacement MTTR", res.MTTR.Round(time.Millisecond))
		} else {
			tbl.AddRow("replacement MTTR", "n/a (no replacement)")
		}
		tbl.AddRow("hedge delay at exit", res.HedgeAfter)
		tbl.AddRow("retry deposit at exit", fmt.Sprintf("%g", res.Deposit))
		tbl.AddRow("final membership", membership(res, true))
		tbl.AddRow("endpoints at exit", strings.Join(res.Endpoints, ", "))

	case "gray":
		on := cfg.Gray == "on"
		tbl = stats.NewTable(fmt.Sprintf("Gray-failure fleet, %s arm (seed %d)",
			map[bool]string{true: "mitigated", false: "unmitigated"}[on], cfg.Seed), "measure", "value")
		tbl.AddRow("configuration", map[bool]string{
			true:  "mitigated (hedge + ejector + rejuvenation policy)",
			false: "unmitigated (no hedge, no ejector)",
		}[on])
		tbl.AddRow("replicas", replicas)
		tbl.AddRow("fault", res.Fault)
		head("served")
		tbl.AddRow("wrong answers", res.Wrong)
		tbl.AddRow("baseline p99 (healthy phase)", res.BaselineP99.Round(time.Microsecond))
		tbl.AddRow("run p99", res.P99.Round(time.Microsecond))
		e := res.Ejection
		tbl.AddRow("tail amplification", fmt.Sprintf("%.1f×", e.TailAmplification))
		if on {
			tbl.AddRow("ejection TPR", fmt.Sprintf("%.2f (%d/%d limpers ejected)", e.TPR, e.EjectedLimpers, e.Limpers))
			tbl.AddRow("ejection FPR", fmt.Sprintf("%.2f (%d/%d healthy ejected)", e.FPR, e.EjectedHealthy, e.Healthy))
			if res.TimeToEject > 0 {
				tbl.AddRow("time to eject", res.TimeToEject.Round(time.Millisecond))
			} else {
				tbl.AddRow("time to eject", "n/a (never ejected)")
			}
			tbl.AddRow("reinstatements", e.Reinstated)
			tbl.AddRow("ejections", total.Ejections)
			tbl.AddRow("probes launched", total.ProbeLaunches)
			tbl.AddRow("rejuvenations", res.Actions["rejuvenate"])
			ewmas := make([]string, len(res.Latency))
			for i, ep := range res.Latency {
				ewmas[i] = fmt.Sprintf("%s=%s", ep.Endpoint, ep.EWMA.Round(10*time.Microsecond))
			}
			tbl.AddRow("latency EWMAs at exit", strings.Join(ewmas, " "))
		}
		tbl.AddRow("final membership", membership(res, true))
	}
	return tbl
}

// membership renders the detector's verdicts at exit, with each
// replica's evidence tracks when evidence is set.
func membership(res *scenario.Result, evidence bool) string {
	parts := make([]string, len(res.Members))
	for i, m := range res.Members {
		parts[i] = fmt.Sprintf("%s=%s", m.Name, m.State)
		if evidence {
			parts[i] += fmt.Sprintf("(miss=%d,accuse=%d,slow=%d)", m.Misses, m.Accusations, m.Slowness)
		}
	}
	return strings.Join(parts, " ")
}
