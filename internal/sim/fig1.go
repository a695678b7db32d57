package sim

import (
	"context"
	"fmt"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/stats"
	"github.com/softwarefaults/redundancy/internal/vote"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// flakyVariant builds a variant that fails with probability p per
// execution. mode "error" returns a detected error; mode "wrong" returns
// a silently wrong value unique to the variant (index-tagged), the
// adversarial case for voting.
func flakyVariant(name string, idx int, p float64, wrong bool, rng *xrand.Rand) core.Variant[int, int] {
	return core.NewVariant(name, func(_ context.Context, x int) (int, error) {
		if rng.Bool(p) {
			if wrong {
				return x + 1000 + idx, nil // silent wrong value, variant-specific
			}
			return 0, fmt.Errorf("%s failed: %w", name, core.ErrNotAccepted)
		}
		return x * 2, nil
	})
}

// figure1Experiment compares the three architectural patterns of the
// paper's Figure 1 against the non-redundant baseline: reliability,
// executions per request, and (for the sequential pattern) the retry
// cost, as functions of the per-variant failure probability.
func figure1Experiment() Experiment {
	return Experiment{
		ID:       "fig1",
		Index:    "E3",
		Artifact: "Figure 1",
		Title:    "Architectural patterns: reliability and cost vs per-variant failure probability",
		Run: func(seed uint64) ([]*stats.Table, error) {
			const (
				n      = 3
				trials = 20000
			)
			ctx := context.Background()
			table := stats.NewTable(
				"Figure 1 — patterns over n=3 variants (20000 requests per cell)",
				"p(variant fails)", "executor", "reliability", "analytic", "execs/request")

			for _, p := range []float64{0.01, 0.05, 0.10, 0.30} {
				rng := xrand.New(seed)

				// Baseline: single variant, detected failures.
				cSingle := obs.NewCollector()
				single, err := pattern.NewSingle(
					flakyVariant("v1", 0, p, false, rng.Split()),
					counted(cSingle))
				if err != nil {
					return nil, err
				}
				for i := 0; i < trials; i++ {
					_, _ = single.Execute(ctx, i)
				}
				s := cSingle.Executor("single")
				table.AddRow(p, "single (baseline)", s.Reliability(), 1-p, s.ExecutionsPerRequest())

				// Figure 1a: parallel evaluation with majority voting over
				// silently wrong results.
				cPE := obs.NewCollector()
				peVars := make([]core.Variant[int, int], n)
				for i := range peVars {
					peVars[i] = flakyVariant(fmt.Sprintf("v%d", i+1), i, p, true, rng.Split())
				}
				pe, err := pattern.NewParallelEvaluation(peVars,
					vote.Majority(core.EqualOf[int]()), counted(cPE))
				if err != nil {
					return nil, err
				}
				for i := 0; i < trials; i++ {
					_, _ = pe.Execute(ctx, i)
				}
				s = cPE.Executor("parallel-evaluation")
				analyticPE := (1-p)*(1-p)*(1-p) + 3*p*(1-p)*(1-p)
				table.AddRow(p, "parallel evaluation (1a)", s.Reliability(), analyticPE, s.ExecutionsPerRequest())

				// Figure 1b: parallel selection with per-variant acceptance
				// tests (failures are detected).
				cPS := obs.NewCollector()
				psVars := make([]core.Variant[int, int], n)
				tests := make([]core.AcceptanceTest[int, int], n)
				for i := range psVars {
					psVars[i] = flakyVariant(fmt.Sprintf("v%d", i+1), i, p, false, rng.Split())
					tests[i] = func(_ int, _ int) error { return nil }
				}
				ps, err := pattern.NewParallelSelection(psVars, tests, counted(cPS))
				if err != nil {
					return nil, err
				}
				for i := 0; i < trials; i++ {
					_, _ = ps.Execute(ctx, i)
					ps.Reset() // re-enable variants: failures here are transient
				}
				s = cPS.Executor("parallel-selection")
				analyticAny := 1 - p*p*p
				table.AddRow(p, "parallel selection (1b)", s.Reliability(), analyticAny, s.ExecutionsPerRequest())

				// Figure 1c: sequential alternatives.
				cSA := obs.NewCollector()
				saVars := make([]core.Variant[int, int], n)
				for i := range saVars {
					saVars[i] = flakyVariant(fmt.Sprintf("v%d", i+1), i, p, false, rng.Split())
				}
				sa, err := pattern.NewSequentialAlternatives(saVars,
					func(_ int, _ int) error { return nil }, nil, counted(cSA))
				if err != nil {
					return nil, err
				}
				for i := 0; i < trials; i++ {
					_, _ = sa.Execute(ctx, i)
				}
				s = cSA.Executor("sequential-alternatives")
				table.AddRow(p, "sequential alternatives (1c)", s.Reliability(), analyticAny, s.ExecutionsPerRequest())
			}
			return []*stats.Table{table}, nil
		},
	}
}
