package redundancy_test

// E26 acceptance: persisted experiment campaigns. A stored run replays
// to byte-identical aggregates under the same seeds; diffing a
// candidate against a baseline reports metric deltas with noise bounds
// derived from the per-seed spread; a synthetic regression (availability
// drop, injected latency) exceeding the bounds trips the gate with a
// nonzero verdict. EXPERIMENTS.md E26 narrates this test.

import (
	"context"
	"strings"
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

// e26Spec is the deterministic smoke sweep the CI gate also runs.
func e26Spec() *redundancy.ExperimentSpec {
	return &redundancy.ExperimentSpec{
		Name:    "e26-acceptance",
		Mode:    "sim",
		Pattern: "sequential",
		N:       []int{2, 3},
		P:       []float64{0.3},
		Trials:  300,
		Seeds:   []uint64{1, 2, 3},
		Workers: 2,
	}
}

func TestE26StoredRunReplaysByteIdentical(t *testing.T) {
	ctx := context.Background()
	run, err := redundancy.RunExperiment(ctx, e26Spec(), nil)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}

	// Round-trip through the store: replay what was persisted, not what
	// is in memory.
	st, err := redundancy.OpenExperimentStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenExperimentStore: %v", err)
	}
	id, err := st.Save(run)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	stored, err := st.Load(id)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := redundancy.ReplayExperiment(ctx, stored, nil)
	if err != nil {
		t.Fatalf("ReplayExperiment: %v", err)
	}
	if rep.Err() != nil || rep.Mismatched != 0 {
		t.Fatalf("replay diverged: %v (%d mismatched)", rep.Err(), rep.Mismatched)
	}
	if want := 2 * 3; rep.Matched != want { // 2 grid points × 3 seeds
		t.Fatalf("replay matched %d pairs, want %d", rep.Matched, want)
	}
}

func TestE26DiffGatesOnSyntheticRegression(t *testing.T) {
	ctx := context.Background()
	base, err := redundancy.RunExperiment(ctx, e26Spec(), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cand, err := redundancy.RunExperiment(ctx, e26Spec(), nil)
	if err != nil {
		t.Fatalf("candidate: %v", err)
	}

	// Identical sweeps: the gate stays open even with timing gated,
	// because timing bounds come from the seed spread.
	clean := redundancy.DiffExperiments(base, cand, redundancy.ExperimentDiffOptions{})
	if clean.Regressed() {
		t.Fatalf("identical runs regressed:\n%s", clean.String())
	}

	// Synthetic availability regression, far beyond the seed spread.
	for pi := range cand.Points {
		p := &cand.Points[pi]
		for si := range p.Seeds {
			p.Seeds[si].Aggregates.Deterministic.Availability -= 0.15
		}
		p.Pooled.Deterministic.Availability -= 0.15
	}
	diff := redundancy.DiffExperiments(base, cand, redundancy.ExperimentDiffOptions{})
	if !diff.Regressed() {
		t.Fatalf("availability drop not gated:\n%s", diff.String())
	}
	// The report must state the delta and its noise bound.
	found := false
	for _, pd := range diff.Points {
		for _, md := range pd.Metrics {
			if md.Metric == "availability" && md.Regression {
				found = true
				if md.Delta > -0.1 {
					t.Fatalf("availability delta = %v, want ≈ -0.15", md.Delta)
				}
				if md.Bound <= 0 {
					t.Fatalf("availability bound = %v, want > 0", md.Bound)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no availability regression in report:\n%s", diff.String())
	}
	if !strings.Contains(diff.String(), "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", diff.String())
	}

	// Synthetic latency injection: gates only when timing is gated. The
	// candidate is the baseline with every request slowed by one added
	// delay, as a real slowdown is: the per-seed spread stays the
	// baseline's and the shift is the delay, which is sized from the
	// baseline's slowest request so that it exceeds the noise bound —
	// three standard deviations of values no larger than that request,
	// or a metric's epsilon — whatever the seeds measured.
	lat, err := redundancy.RunExperiment(ctx, e26Spec(), nil)
	if err != nil {
		t.Fatalf("latency candidate: %v", err)
	}
	for pi := range lat.Points {
		p, bp := &lat.Points[pi], &base.Points[pi]
		if p.Config.Key() != bp.Config.Key() || len(p.Seeds) != len(bp.Seeds) {
			t.Fatalf("point %d: candidate %s with %d seeds, baseline %s with %d", pi, p.Config.Key(), len(p.Seeds), bp.Config.Key(), len(bp.Seeds))
		}
		var slowest time.Duration
		for _, s := range bp.Seeds {
			slowest = max(slowest, s.Aggregates.Timing.Max)
		}
		delay := max(1000*slowest, time.Second)
		for si := -1; si < len(p.Seeds); si++ { // -1 is the pooled aggregate
			tm, from := &p.Pooled.Timing, bp.Pooled.Timing
			if si >= 0 {
				tm, from = &p.Seeds[si].Aggregates.Timing, bp.Seeds[si].Aggregates.Timing
			}
			*tm = from
			tm.Mean += delay
			tm.P50 += delay
			tm.P90 += delay
			tm.P99 += delay
			tm.Max += delay
		}
	}
	if d := redundancy.DiffExperiments(base, lat, redundancy.ExperimentDiffOptions{}); d.Regressed() {
		t.Fatalf("latency gated without GateTiming:\n%s", d.String())
	}
	d := redundancy.DiffExperiments(base, lat, redundancy.ExperimentDiffOptions{GateTiming: true})
	if !d.Regressed() {
		t.Fatalf("injected latency not gated with GateTiming:\n%s", d.String())
	}
}
