package sim

import (
	"context"
	"fmt"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/nvp"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/selfcheck"
	"github.com/softwarefaults/redundancy/internal/selfopt"
	"github.com/softwarefaults/redundancy/internal/stats"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// withMetricsOpt wraps a metrics collector (plus the package observer,
// when set) as pattern options.
func withMetricsOpt(m *core.Metrics) []pattern.Option {
	opts := []pattern.Option{pattern.WithMetrics(m)}
	if observer != nil {
		opts = append(opts, pattern.WithObserver(observer))
	}
	return opts
}

// newSequential builds a sequential-alternatives executor with metrics.
func newSequential(vs []core.Variant[int, int], test core.AcceptanceTest[int, int], m *core.Metrics) (*pattern.SequentialAlternatives[int, int], error) {
	return pattern.NewSequentialAlternatives(vs, test, nil, withMetricsOpt(m)...)
}

// buildOptimizer constructs a selfopt.Optimizer over identity variants
// with the given latency profiles.
func buildOptimizer(profiles []selfoptProfile, threshold float64, window int, probe func() float64) (*selfopt.Optimizer[int, int], error) {
	if len(profiles) == 0 {
		return nil, errNoProfiles
	}
	ps := make([]selfopt.Profile[int, int], len(profiles))
	for i, p := range profiles {
		ps[i] = selfopt.Profile[int, int]{
			Variant: core.NewVariant(p.name, func(_ context.Context, x int) (int, error) {
				return x, nil
			}),
			Latency: p.lat,
		}
	}
	return selfopt.NewOptimizer(ps, threshold, window, probe)
}

// runCostsExperiment compares the three deliberate code-redundancy
// techniques on identical variants: each of the three versions silently
// returns a wrong value with probability p per execution; the acceptance
// test (where one exists) is a perfect detector.
func runCostsExperiment(seed uint64) ([]*stats.Table, error) {
	const (
		trials = 20000
		n      = 3
	)
	ctx := context.Background()
	table := stats.NewTable(
		"Costs and efficacy of code redundancy (3 versions, perfect acceptance tests, 20000 requests)",
		"p(version wrong)", "technique", "reliability", "execs/request", "adjudicator")

	for _, p := range []float64{0.05, 0.2} {
		master := xrand.New(seed)

		correct := func(x int) int { return x * 2 }
		mkVersion := func(name string, rng *xrand.Rand) core.Variant[int, int] {
			return core.NewVariant(name, func(_ context.Context, x int) (int, error) {
				if rng.Bool(p) {
					return x*2 + 1, nil // silent wrong result
				}
				return correct(x), nil
			})
		}
		acceptance := func(x int, out int) error {
			if out != correct(x) {
				return core.ErrNotAccepted
			}
			return nil
		}

		// N-version programming: parallel evaluation, majority vote,
		// implicit adjudicator (no acceptance test needed).
		var mNVP core.Metrics
		versions := make([]core.Variant[int, int], n)
		for i := range versions {
			versions[i] = mkVersion(fmt.Sprintf("v%d", i+1), master.Split())
		}
		nvpSys, err := nvp.New(versions, core.EqualOf[int](), withMetricsOpt(&mNVP)...)
		if err != nil {
			return nil, err
		}
		nvpWrong := 0
		for i := 0; i < trials; i++ {
			out, err := nvpSys.Execute(ctx, i)
			if err != nil || out != correct(i) {
				nvpWrong++
			}
		}
		s := mNVP.Snapshot()
		table.AddRow(p, "N-version programming", 1-float64(nvpWrong)/trials,
			s.ExecutionsPerRequest(), "implicit (vote)")

		// Recovery blocks: sequential alternatives behind a perfect
		// acceptance test. State is trivial here (pure functions), so
		// rollback is a no-op; the point is the execution-cost profile.
		var mRB core.Metrics
		rbVersions := make([]core.Variant[int, int], n)
		for i := range rbVersions {
			rbVersions[i] = mkVersion(fmt.Sprintf("alt%d", i+1), master.Split())
		}
		rb, err := newSequential(rbVersions, acceptance, &mRB)
		if err != nil {
			return nil, err
		}
		rbWrong := 0
		for i := 0; i < trials; i++ {
			out, err := rb.Execute(ctx, i)
			if err != nil || out != correct(i) {
				rbWrong++
			}
		}
		s = mRB.Snapshot()
		table.AddRow(p, "recovery blocks", 1-float64(rbWrong)/trials,
			s.ExecutionsPerRequest(), "explicit (acceptance test)")

		// Self-checking programming: parallel selection with built-in
		// acceptance tests and hot-spare promotion. Failures here are
		// transient per-request, so discarded components are restored
		// between requests by rebuilding the system per batch; we model
		// the hot-spare cost by running all components in parallel.
		var mSC core.Metrics
		scWrong := 0
		comps := make([]selfcheck.Component[int, int], n)
		for i := range comps {
			c, err := selfcheck.WithTest(mkVersion(fmt.Sprintf("sc%d", i+1), master.Split()), acceptance)
			if err != nil {
				return nil, err
			}
			comps[i] = c
		}
		for i := 0; i < trials; i++ {
			// Rebuild per request: the experiment measures per-request
			// cost, not redundancy depletion.
			sys, err := selfcheck.NewSystem(comps, pattern.WithMetrics(&mSC))
			if err != nil {
				return nil, err
			}
			out, err := sys.Execute(ctx, i)
			if err != nil || out != correct(i) {
				scWrong++
			}
		}
		s = mSC.Snapshot()
		table.AddRow(p, "self-checking programming", 1-float64(scWrong)/trials,
			s.ExecutionsPerRequest(), "expl./impl. (built-in checks)")
	}

	depletion, err := depletionTable(seed)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{table, depletion}, nil
}

// depletionTable measures the paper's remark that "software execution
// progressively consumes the initial explicit redundancy, since failing
// elements are discarded and substituted with redundant ones": in a
// self-checking system whose components suffer *permanent* failures, the
// expected number of requests served before the redundancy is exhausted
// grows with the number of hot spares.
func depletionTable(seed uint64) (*stats.Table, error) {
	const (
		pPermanent = 0.01 // per-request permanent-failure probability
		trials     = 300
	)
	table := stats.NewTable(
		"Redundancy depletion: requests served until all self-checking components are discarded (permanent failure rate 0.01/request)",
		"components", "mean requests to exhaustion", "p50", "p95")
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 5} {
		master := xrand.New(seed + uint64(n))
		lifetimes := make([]float64, 0, trials)
		for tr := 0; tr < trials; tr++ {
			comps := make([]selfcheck.Component[int, int], n)
			for i := range comps {
				rng := master.Split()
				dead := false
				c, err := selfcheck.WithTest(
					core.NewVariant(fmt.Sprintf("c%d", i+1), func(_ context.Context, x int) (int, error) {
						if dead || rng.Bool(pPermanent) {
							dead = true // permanent: the fault persists
							return 0, fmt.Errorf("permanent failure")
						}
						return x, nil
					}),
					func(_ int, _ int) error { return nil })
				if err != nil {
					return nil, err
				}
				comps[i] = c
			}
			sys, err := selfcheck.NewSystem(comps)
			if err != nil {
				return nil, err
			}
			served := 0
			for {
				if _, err := sys.Execute(ctx, served); err != nil {
					break
				}
				served++
			}
			lifetimes = append(lifetimes, float64(served))
		}
		summary, err := stats.Summarize(lifetimes)
		if err != nil {
			return nil, err
		}
		table.AddRow(n, summary.Mean, summary.P50, summary.P95)
	}
	return table, nil
}
