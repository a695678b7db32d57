package main

// -campaign-out support: any faultsim invocation (sim, chaos, net) can
// record itself into the experiment store as a single-point run — the
// same document schema `campaign run` sweeps produce, so stored faultsim
// invocations list, show, diff, and (for deterministic modes) replay
// alongside swept campaigns. -config-out echoes the fully resolved
// configuration (the document's config block) without recording a run.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
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
// including the executor policy stack runChaos hard-codes.
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

// recorder returns a recorder for -campaign-out, nil without it.
func (s recorderSettings) recorder(seed uint64) *runRecorder {
	if s.storeDir == "" {
		return nil
	}
	return &runRecorder{seed: seed, rows: map[int]*campaign.Trial{}, started: time.Now()}
}

// runRecorder accumulates per-trial rows from any of faultsim's
// workload loops. Concurrent executors (parallel selection, overload
// phases) report through the same recorder, so it locks; rows are keyed
// by request index and emitted sorted.
type runRecorder struct {
	mu      sync.Mutex
	seed    uint64
	rows    map[int]*campaign.Trial
	current int // request index for paths without a context index
	started time.Time
}

// begin marks the start of request i for variant spies that cannot read
// an index from the context (sim mode runs trials sequentially).
func (r *runRecorder) begin(i int) {
	r.mu.Lock()
	r.current = i
	r.row(i)
	r.mu.Unlock()
}

// row returns (creating) the row for request i; callers hold r.mu.
// Trace identities use the same deterministic derivation the sweep
// runner uses, so a recorded sim run replays byte-identically.
func (r *runRecorder) row(i int) *campaign.Trial {
	if r.rows[i] == nil {
		r.rows[i] = &campaign.Trial{Index: i, TraceID: campaign.TrialTraceID(r.seed, i)}
	}
	return r.rows[i]
}

// indexFrom resolves the request index: the campaign context index when
// present, else the sequential current index.
func (r *runRecorder) indexFrom(ctx context.Context) int {
	if req, ok := faultmodel.RequestIndexFrom(ctx); ok {
		return int(req)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current
}

// noteFailure marks request i detected: the executor saw a variant fail.
func (r *runRecorder) noteFailure(i int) {
	r.mu.Lock()
	r.row(i).Detected = true
	r.mu.Unlock()
}

// noteServed attributes the accepted answer of request i to a variant.
func (r *runRecorder) noteServed(i int, name string) {
	r.mu.Lock()
	row := r.row(i)
	if row.Variant == "" {
		row.Variant = name
	}
	r.mu.Unlock()
}

// noteFaultHere labels the current sequential request — for sim-mode
// variant closures, whose contexts carry no request index.
func (r *runRecorder) noteFaultHere(label string) {
	r.mu.Lock()
	i := r.current
	r.mu.Unlock()
	r.noteFault(i, label)
}

// noteFault appends a ground-truth fault label to request i's row.
func (r *runRecorder) noteFault(i int, label string) {
	r.mu.Lock()
	row := r.row(i)
	for _, have := range strings.Split(row.Fault, "+") {
		if have == label {
			r.mu.Unlock()
			return
		}
	}
	if row.Fault == "" {
		row.Fault = label
	} else {
		row.Fault += "+" + label
	}
	r.mu.Unlock()
}

// finish completes request i's row with its outcome and latency.
func (r *runRecorder) finish(i int, err error, latency time.Duration) {
	outcome := campaign.OutcomeOK
	switch {
	case err == nil:
	case errors.Is(err, redundancy.ErrShedded):
		outcome = campaign.OutcomeShed
	case errors.Is(err, redundancy.ErrDegraded):
		outcome = campaign.OutcomeDegraded
	case errors.Is(err, redundancy.ErrBreakerOpen):
		outcome = campaign.OutcomeBreakerOpen
	default:
		outcome = campaign.OutcomeFailed
	}
	r.mu.Lock()
	row := r.row(i)
	row.Outcome = outcome
	row.Latency = latency
	// Fault labels accumulate unsorted; normalize for digest stability.
	if strings.Contains(row.Fault, "+") {
		parts := strings.Split(row.Fault, "+")
		sort.Strings(parts)
		row.Fault = strings.Join(parts, "+")
	}
	r.mu.Unlock()
}

// trials returns the recorded rows sorted by request index.
func (r *runRecorder) trials() []campaign.Trial {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, 0, len(r.rows))
	for i := range r.rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]campaign.Trial, 0, len(idx))
	for _, i := range idx {
		out = append(out, *r.rows[i])
	}
	return out
}

// spyVariant reports a wrapped variant's executions to the recorder.
type spyVariant struct {
	redundancy.Variant[int, int]
	rec *runRecorder
}

func (v spyVariant) Execute(ctx context.Context, x int) (int, error) {
	out, err := v.Variant.Execute(ctx, x)
	i := v.rec.indexFrom(ctx)
	if err != nil {
		v.rec.noteFailure(i)
	} else {
		v.rec.noteServed(i, v.Variant.Name())
	}
	return out, err
}

// seedResult derives the recorded rows' aggregates.
func (r *runRecorder) seedResult(observed []redundancy.ExecutorObservation) campaign.SeedResult {
	return campaign.NewSeedResult(r.seed, r.trials(), time.Since(r.started), observed, nil)
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
