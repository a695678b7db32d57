// Package vote implements the adjudicators of the framework: the voting
// mechanisms that act as implicit adjudicators in N-version programming
// and process replicas, and the acceptance-test adjudicators that act as
// explicit adjudicators in recovery blocks and self-checking components.
//
// A general voting algorithm compares the results of the program variants
// and selects the final one based on the output of the majority. Since a
// final output needs a majority quorum, the number of variants determines
// the number of tolerable failures: to tolerate k faulty results a system
// must consist of 2k+1 versions (paper, Section 4.1).
package vote

import (
	"fmt"

	"github.com/softwarefaults/redundancy/internal/core"
)

// VersionsNeeded returns the number of versions required to tolerate k
// faulty results under majority voting: 2k+1.
func VersionsNeeded(k int) int {
	if k < 0 {
		return 1
	}
	return 2*k + 1
}

// TolerableFaults returns the number of faulty results an n-version
// majority vote can tolerate: floor((n-1)/2).
func TolerableFaults(n int) int {
	if n <= 0 {
		return 0
	}
	return (n - 1) / 2
}

// group is an equivalence class of agreeing results.
type group[O any] struct {
	value O
	count int
}

// classes partitions the successful results into equivalence classes
// under eq, preserving first-seen order: each result joins the first
// class whose representative, its first member, it equals. The classes
// are appended to gs, which callers make with room for four, so a vote
// over up to four results keeps its classes on the stack.
func classes[O any](gs []group[O], results []core.Result[O], eq core.Equal[O]) []group[O] {
outer:
	for _, r := range results {
		if !r.OK() {
			continue
		}
		for i := range gs {
			if eq(gs[i].value, r.Value) {
				gs[i].count++
				continue outer
			}
		}
		gs = append(gs, group[O]{value: r.Value, count: 1})
	}
	return gs
}

// largest returns the index of the class with the most votes and whether
// that maximum is unique.
func largest[O any](gs []group[O]) (idx int, unique bool) {
	idx = -1
	best := 0
	unique = true
	for i, g := range gs {
		switch {
		case g.count > best:
			best, idx, unique = g.count, i, true
		case g.count == best:
			unique = false
		}
	}
	return idx, unique
}

// Majority returns an implicit adjudicator that selects the value agreed
// on by a strict majority of the n variants (not merely of the successful
// ones): a value wins only with more than n/2 votes, so up to
// TolerableFaults(n) arbitrary faulty results are outvoted. It returns
// core.ErrNoConsensus when no value reaches the quorum.
func Majority[O any](eq core.Equal[O]) core.Adjudicator[O] {
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		quorum := len(results)/2 + 1
		for _, g := range classes(make([]group[O], 0, 4), results, eq) {
			if g.count >= quorum {
				return g.value, nil
			}
		}
		return zero, fmt.Errorf("majority of %d needs %d agreeing results: %w",
			len(results), quorum, core.ErrNoConsensus)
	})
}

// Plurality returns an implicit adjudicator that selects the most common
// successful value, regardless of quorum. Ties and all-failed inputs
// yield core.ErrNoConsensus. Plurality trades the strict fault-tolerance
// guarantee of Majority for availability.
func Plurality[O any](eq core.Equal[O]) core.Adjudicator[O] {
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		gs := classes(make([]group[O], 0, 4), results, eq)
		idx, unique := largest(gs)
		if idx < 0 {
			return zero, fmt.Errorf("all %d variants failed: %w",
				len(results), core.ErrAllVariantsFailed)
		}
		if !unique {
			return zero, fmt.Errorf("plurality tie: %w", core.ErrNoConsensus)
		}
		return gs[idx].value, nil
	})
}

// Unanimity returns an implicit adjudicator that requires every variant
// to succeed with equivalent values. It is the comparison adjudicator of
// process replicas and N-variant systems: any divergence is reported as
// core.ErrDivergence (a detected failure or attack).
func Unanimity[O any](eq core.Equal[O]) core.Adjudicator[O] {
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		for _, r := range results {
			if !r.OK() {
				return zero, fmt.Errorf("variant %s failed: %w", r.Variant, core.ErrDivergence)
			}
		}
		gs := classes(make([]group[O], 0, 4), results, eq)
		if len(gs) != 1 {
			return zero, fmt.Errorf("%d distinct outputs: %w", len(gs), core.ErrDivergence)
		}
		return gs[0].value, nil
	})
}

// MOfN returns an implicit adjudicator that selects the first value with
// at least m agreeing successful results (a consensus-voting quorum as in
// WS-FTM's quorum agreement). m must be at least 1.
func MOfN[O any](m int, eq core.Equal[O]) core.Adjudicator[O] {
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		if m < 1 {
			return zero, fmt.Errorf("m-of-n quorum %d is invalid: %w", m, core.ErrNoConsensus)
		}
		best := -1
		bestCount := 0
		gs := classes(make([]group[O], 0, 4), results, eq)
		for i, g := range gs {
			if g.count >= m && g.count > bestCount {
				best, bestCount = i, g.count
			}
		}
		if best < 0 {
			return zero, fmt.Errorf("no value reached quorum %d: %w", m, core.ErrNoConsensus)
		}
		return gs[best].value, nil
	})
}

// Weighted returns an implicit adjudicator for weighted voting: each
// variant's vote counts with the weight registered under its name
// (defaulting to defaultWeight for unknown variants). The value whose
// total weight strictly exceeds half of the total configured weight wins.
func Weighted[O any](weights map[string]float64, defaultWeight float64, eq core.Equal[O]) core.Adjudicator[O] {
	ws := make(map[string]float64, len(weights))
	for k, v := range weights {
		ws[k] = v
	}
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		weightOf := func(name string) float64 {
			if w, ok := ws[name]; ok {
				return w
			}
			return defaultWeight
		}
		var total float64
		for _, r := range results {
			total += weightOf(r.Variant)
		}
		type wgroup struct {
			value  O
			weight float64
		}
		var gs []wgroup
	outer:
		for _, r := range results {
			if !r.OK() {
				continue
			}
			for i := range gs {
				if eq(gs[i].value, r.Value) {
					gs[i].weight += weightOf(r.Variant)
					continue outer
				}
			}
			gs = append(gs, wgroup{value: r.Value, weight: weightOf(r.Variant)})
		}
		for _, g := range gs {
			if g.weight > total/2 {
				return g.value, nil
			}
		}
		return zero, fmt.Errorf("no value reached weighted majority: %w", core.ErrNoConsensus)
	})
}

// FirstSuccess returns an adjudicator that selects the first successful
// result in variant order. It models hot-spare promotion: the acting
// component's result is used unless it failed, in which case the spare's
// result is taken.
func FirstSuccess[O any]() core.Adjudicator[O] {
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		for _, r := range results {
			if r.OK() {
				return r.Value, nil
			}
		}
		return zero, core.ErrAllVariantsFailed
	})
}

// Median returns an implicit adjudicator for numeric outputs: it selects
// the median of the successful results. With n variants and fewer than
// n/2 arbitrarily-wrong results the median is bracketed by correct
// values, making it the standard inexact-voting choice for floating-point
// computations where bitwise equality is too strict.
func Median(results []core.Result[float64]) (float64, error) {
	if len(results) == 0 {
		return 0, core.ErrNoVariants
	}
	var vals []float64
	for _, r := range results {
		if r.OK() {
			vals = append(vals, r.Value)
		}
	}
	if len(vals) == 0 {
		return 0, core.ErrAllVariantsFailed
	}
	// Insertion sort: n is the number of variants, always tiny.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid], nil
	}
	return (vals[mid-1] + vals[mid]) / 2, nil
}

// MedianAdjudicator wraps Median as a core.Adjudicator.
func MedianAdjudicator() core.Adjudicator[float64] {
	return core.AdjudicatorFunc[float64](Median)
}

// Acceptance returns an explicit adjudicator built from an acceptance
// test, as in recovery blocks: it selects the first successful result
// that passes the test. The input is captured so the test can validate
// output against input.
func Acceptance[I, O any](input I, test core.AcceptanceTest[I, O]) core.Adjudicator[O] {
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(results) == 0 {
			return zero, core.ErrNoVariants
		}
		var lastErr error = core.ErrAllVariantsFailed
		for _, r := range results {
			if !r.OK() {
				lastErr = r.Err
				continue
			}
			if err := test(input, r.Value); err != nil {
				lastErr = err
				continue
			}
			return r.Value, nil
		}
		return zero, fmt.Errorf("no acceptable result: %w", lastErr)
	})
}

// ApproxEqual returns an Equal for float64 outputs that tolerates an
// absolute difference of eps. Voting over independently implemented
// numeric computations generally needs inexact comparison: bitwise
// equality would report divergence for legitimate rounding differences
// between versions (the output-reconciliation problem the paper notes for
// replicated heterogeneous servers).
func ApproxEqual(eps float64) core.Equal[float64] {
	return func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= eps
	}
}

// Chained returns an adjudicator that tries the given adjudicators in
// order, returning the first successful verdict. The standard use is a
// strict-then-lenient cascade — Majority first, falling back to
// Plurality when availability matters more than the strict quorum
// guarantee.
func Chained[O any](adjs ...core.Adjudicator[O]) core.Adjudicator[O] {
	chain := make([]core.Adjudicator[O], len(adjs))
	copy(chain, adjs)
	return core.AdjudicatorFunc[O](func(results []core.Result[O]) (O, error) {
		var zero O
		if len(chain) == 0 {
			return zero, core.ErrNoConsensus
		}
		var lastErr error
		for _, adj := range chain {
			v, err := adj.Adjudicate(results)
			if err == nil {
				return v, nil
			}
			lastErr = err
		}
		return zero, lastErr
	})
}
