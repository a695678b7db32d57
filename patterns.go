package redundancy

import (
	"context"
	"log/slog"
	"time"

	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// RollbackFunc restores a consistent state before a retry.
type RollbackFunc = func(ctx context.Context) error

// Pattern executors (paper Figure 1).
type (
	// ParallelEvaluation runs every variant concurrently and adjudicates
	// over the full result set (Figure 1a).
	ParallelEvaluation[I, O any] = pattern.ParallelEvaluation[I, O]
	// ParallelSelection runs variants concurrently, each checked by its
	// own acceptance test, disabling failing components (Figure 1b).
	ParallelSelection[I, O any] = pattern.ParallelSelection[I, O]
	// SequentialAlternatives runs variants one at a time with rollback
	// between attempts (Figure 1c).
	SequentialAlternatives[I, O any] = pattern.SequentialAlternatives[I, O]
	// Single is the non-redundant baseline executor.
	Single[I, O any] = pattern.Single[I, O]
	// PatternOption configures a pattern executor.
	PatternOption = pattern.Option
)

// WithVariantTimeout bounds each variant execution of a pattern executor.
func WithVariantTimeout(d time.Duration) PatternOption {
	return pattern.WithVariantTimeout(d)
}

// WithLogger attaches a structured logger to a pattern executor: variant
// failures are emitted at debug level, masked failures and executor
// failures at info level.
func WithLogger(l *slog.Logger) PatternOption { return pattern.WithLogger(l) }

// NewParallelEvaluation builds a Figure 1a executor.
func NewParallelEvaluation[I, O any](variants []Variant[I, O], adj Adjudicator[O], opts ...PatternOption) (*ParallelEvaluation[I, O], error) {
	return pattern.NewParallelEvaluation(variants, adj, opts...)
}

// NewParallelSelection builds a Figure 1b executor; tests[i] validates
// variants[i].
func NewParallelSelection[I, O any](variants []Variant[I, O], tests []AcceptanceTest[I, O], opts ...PatternOption) (*ParallelSelection[I, O], error) {
	return pattern.NewParallelSelection(variants, tests, opts...)
}

// NewSequentialAlternatives builds a Figure 1c executor; rollback, if
// non-nil, restores consistent state before each retry.
func NewSequentialAlternatives[I, O any](variants []Variant[I, O], test AcceptanceTest[I, O], rollback RollbackFunc, opts ...PatternOption) (*SequentialAlternatives[I, O], error) {
	return pattern.NewSequentialAlternatives(variants, test, rollback, opts...)
}

// NewSingle wraps one variant as the non-redundant baseline executor.
func NewSingle[I, O any](v Variant[I, O], opts ...PatternOption) (*Single[I, O], error) {
	return pattern.NewSingle(v, opts...)
}

// Adjudicators.

// Majority selects the value agreed on by a strict majority of the
// variants; it tolerates TolerableFaults(n) arbitrary wrong results.
func Majority[O any](eq Equal[O]) Adjudicator[O] { return vote.Majority(eq) }

// Plurality selects the most common successful value regardless of
// quorum, trading safety for availability.
func Plurality[O any](eq Equal[O]) Adjudicator[O] { return vote.Plurality(eq) }

// Unanimity requires all variants to agree; any divergence is reported as
// ErrDivergence (the comparison adjudicator of process replicas).
func Unanimity[O any](eq Equal[O]) Adjudicator[O] { return vote.Unanimity(eq) }

// MOfN selects the first value with at least m agreeing results.
func MOfN[O any](m int, eq Equal[O]) Adjudicator[O] { return vote.MOfN(m, eq) }

// Weighted implements weighted voting with per-variant weights.
func Weighted[O any](weights map[string]float64, defaultWeight float64, eq Equal[O]) Adjudicator[O] {
	return vote.Weighted(weights, defaultWeight, eq)
}

// FirstSuccess selects the first successful result in variant order.
func FirstSuccess[O any]() Adjudicator[O] { return vote.FirstSuccess[O]() }

// MedianAdjudicator selects the median of successful numeric results, the
// standard inexact-voting adjudicator.
func MedianAdjudicator() Adjudicator[float64] { return vote.MedianAdjudicator() }

// AcceptanceAdjudicator builds an explicit adjudicator from an acceptance
// test over a captured input.
func AcceptanceAdjudicator[I, O any](input I, test AcceptanceTest[I, O]) Adjudicator[O] {
	return vote.Acceptance(input, test)
}

// VersionsNeeded returns the number of versions required to tolerate k
// faulty results under majority voting: 2k+1 (paper Section 4.1).
func VersionsNeeded(k int) int { return vote.VersionsNeeded(k) }

// TolerableFaults returns the number of faulty results an n-version
// majority vote tolerates: floor((n-1)/2).
func TolerableFaults(n int) int { return vote.TolerableFaults(n) }

// ChainedAdjudicator tries adjudicators in order, returning the first
// successful verdict (e.g. Majority with a Plurality fallback).
func ChainedAdjudicator[O any](adjs ...Adjudicator[O]) Adjudicator[O] {
	return vote.Chained(adjs...)
}
