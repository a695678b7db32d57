package main

// -campaign-out support: any faultsim invocation (sim, chaos, net) can
// record itself into the experiment store as a single-point run — the
// same document schema `campaign run` sweeps produce, so stored faultsim
// invocations list, show, diff, and (for deterministic modes) replay
// alongside swept campaigns. -config-out echoes the fully resolved
// configuration (the document's config block) without recording a run.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
)

// recorderSettings carries the -campaign-* / -config-out flags.
type recorderSettings struct {
	storeDir   string // -campaign-out: run store directory ("" disables)
	name       string // -campaign-name
	configOut  string // -config-out: echo resolved config JSON ("" disables)
	dropTrials bool   // -campaign-trials=false: aggregates only
}

func (s recorderSettings) active() bool { return s.storeDir != "" || s.configOut != "" }

// resolvedSimConfig builds the config block for a Monte Carlo run.
func resolvedSimConfig(patternName string, n int, p, rho float64, trials int, seed uint64, bohr int) campaign.Config {
	return campaign.Config{
		Mode:     "sim",
		Pattern:  patternName,
		Variants: n,
		FailureP: p,
		Rho:      rho,
		Bohr:     bohr,
		Trials:   trials,
		Seed:     seed,
	}
}

// resolvedChaosConfig builds the config block for a -chaos run,
// including the resilience-policy stack the run's executor carries.
func resolvedChaosConfig(patternName string, n, bohr int, camp *faultmodel.Campaign) campaign.Config {
	return campaign.Config{
		Mode:     "chaos",
		Pattern:  patternName,
		Variants: n,
		Bohr:     bohr,
		Trials:   camp.Total(),
		Seed:     camp.Seed,
		Chaos:    camp,
		Executor: campaign.ExecutorConfig{
			BreakerConsecutiveFailures: 5,
			BreakerOpenFor:             faultmodel.Duration(100 * time.Millisecond),
			RetryBaseBackoff:           faultmodel.Duration(100 * time.Microsecond),
			RetryMaxBackoff:            faultmodel.Duration(time.Millisecond),
			RetryJitter:                0.5,
			RetryBudget:                100,
			BulkheadMaxConcurrent:      16,
			BulkheadMaxWaiting:         16,
			Deadline:                   faultmodel.Duration(250 * time.Millisecond),
			VariantDeadline:            faultmodel.Duration(20 * time.Millisecond),
			Fallback:                   "cache-last-good",
		},
	}
}

// echo writes cfg to -config-out, when set.
func (s recorderSettings) echo(cfg campaign.Config) error {
	if s.configOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(cfg, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.configOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote resolved config to %s\n", s.configOut)
	return nil
}

// saveRecordedRun packages one seed's result as a single-point run and
// persists it to the -campaign-out store.
func saveRecordedRun(set recorderSettings, cfg campaign.Config, seed campaign.SeedResult) error {
	name := set.name
	if name == "" {
		name = "faultsim-" + cfg.Mode
	}
	doc := campaign.NewRecordedRun(name, cfg, seed)
	if set.dropTrials {
		// After pooling: the aggregates survive, only the rows go.
		doc.Points[0].Seeds[0].Trials = nil
	}
	st, err := campaign.Open(set.storeDir)
	if err != nil {
		return err
	}
	id, err := st.Save(doc)
	if err != nil {
		return err
	}
	// Replica-level detection quality, for the modes that score it.
	var extra string
	if c := seed.Aggregates.Conviction; c != nil {
		extra += fmt.Sprintf(", conviction tpr %.2f fpr %.2f", c.TPR, c.FPR)
	}
	if e := seed.Aggregates.Ejection; e != nil {
		extra += fmt.Sprintf(", tail amplification %.1f, ejection tpr %.2f fpr %.2f", e.TailAmplification, e.TPR, e.FPR)
	}
	fmt.Printf("recorded run %s in %s (%d trials, availability %.4f%s)\n",
		id, set.storeDir, doc.TotalTrials(), doc.Availability(), extra)
	return nil
}
