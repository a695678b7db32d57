// Package core defines the abstractions shared by every redundancy
// technique in the framework: variants (alternative implementations of one
// logically unique functionality), execution results, adjudicators, and
// the taxonomy dimensions of Carzaniga, Gorla and Pezzè's "Handling
// Software Faults with Redundancy".
//
// A system is redundant when it can execute the same, logically unique
// functionality in multiple ways or in multiple instances. The framework
// models the "multiple ways" as Variant values and the mechanisms that
// pick or validate results as Adjudicator and AcceptanceTest values. The
// architectural patterns of the paper's Figure 1 (parallel evaluation,
// parallel selection, sequential alternatives) are composed from these
// pieces in package pattern.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Sentinel errors shared by executors across the framework.
var (
	// ErrNoVariants is returned when an executor is constructed or run
	// with an empty variant set.
	ErrNoVariants = errors.New("redundancy: no variants configured")
	// ErrAllVariantsFailed is returned when every alternative was tried
	// and none produced an acceptable result.
	ErrAllVariantsFailed = errors.New("redundancy: all variants failed")
	// ErrNoConsensus is returned by voting adjudicators when no result
	// reaches the required quorum.
	ErrNoConsensus = errors.New("redundancy: no consensus among variants")
	// ErrNotAccepted is returned by acceptance tests to signal that a
	// result failed validation.
	ErrNotAccepted = errors.New("redundancy: result rejected by acceptance test")
	// ErrDivergence is returned by comparison adjudicators (process
	// replicas, N-variant systems) when replicas that must agree do not.
	ErrDivergence = errors.New("redundancy: replica behavior diverged")
)

// Variant is one implementation of a logically unique functionality.
// In N-version programming a Variant is one independently developed
// version; in recovery blocks it is the primary or an alternate; in
// dynamic service substitution it is one service provider.
type Variant[I, O any] interface {
	// Name identifies the variant in results, logs and metrics.
	Name() string
	// Execute runs the variant on input. Implementations must honor ctx
	// cancellation for long computations and must return an error rather
	// than panic on failure.
	Execute(ctx context.Context, input I) (O, error)
}

// funcVariant adapts a plain function to the Variant interface.
type funcVariant[I, O any] struct {
	name string
	fn   func(ctx context.Context, input I) (O, error)
}

var _ Variant[int, int] = (*funcVariant[int, int])(nil)

// NewVariant wraps fn as a named Variant.
func NewVariant[I, O any](name string, fn func(ctx context.Context, input I) (O, error)) Variant[I, O] {
	return &funcVariant[I, O]{name: name, fn: fn}
}

func (v *funcVariant[I, O]) Name() string { return v.name }

func (v *funcVariant[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return v.fn(ctx, input)
}

// Result is the outcome of executing one variant.
type Result[O any] struct {
	// Variant is the name of the variant that produced this result.
	Variant string
	// Value is the produced output; meaningful only when Err is nil.
	Value O
	// Err is the failure reported by the variant, or nil on success.
	Err error
	// Latency is the wall-clock execution time of the variant.
	Latency time.Duration
}

// OK reports whether the result is a success.
func (r Result[O]) OK() bool { return r.Err == nil }

// Adjudicator decides the outcome of a redundant execution from the
// results of the individual variants. Voting mechanisms (N-version
// programming) are implicit adjudicators; acceptance tests (recovery
// blocks) are explicit adjudicators.
type Adjudicator[O any] interface {
	// Adjudicate examines the variant results and returns the adjudged
	// output, or an error (typically ErrNoConsensus or
	// ErrAllVariantsFailed) when no acceptable output exists.
	Adjudicate(results []Result[O]) (O, error)
}

// AdjudicatorFunc adapts a function to the Adjudicator interface.
type AdjudicatorFunc[O any] func(results []Result[O]) (O, error)

var _ Adjudicator[int] = (AdjudicatorFunc[int])(nil)

// Adjudicate implements Adjudicator.
func (f AdjudicatorFunc[O]) Adjudicate(results []Result[O]) (O, error) {
	return f(results)
}

// AcceptanceTest validates a single result against its input, as in
// recovery blocks and self-checking components. A nil return accepts the
// result; a non-nil return (conventionally wrapping ErrNotAccepted)
// rejects it.
type AcceptanceTest[I, O any] func(input I, output O) error

// Executor runs a redundant computation end to end: it executes variants
// according to an architectural pattern and adjudicates a single result.
// All pattern implementations and technique facades satisfy Executor.
type Executor[I, O any] interface {
	Execute(ctx context.Context, input I) (O, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc[I, O any] func(ctx context.Context, input I) (O, error)

var _ Executor[int, int] = (ExecutorFunc[int, int])(nil)

// Execute implements Executor.
func (f ExecutorFunc[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return f(ctx, input)
}

// Equal compares two outputs for adjudication purposes. Voting requires a
// domain notion of result equivalence: reconciling the output of multiple,
// heterogeneous implementations may not be trivial (the paper discusses
// this for replicated SQL servers), so equality is always explicit.
type Equal[O any] func(a, b O) bool

// EqualOf returns an Equal for comparable types using ==.
func EqualOf[O comparable]() Equal[O] {
	return func(a, b O) bool { return a == b }
}

// ErrVariantPanicked is the sentinel wrapped by results of variants whose
// execution panicked; Guard and the pattern executors convert such panics
// into ordinary detected failures so one crashing variant cannot take
// down a redundant executor.
var ErrVariantPanicked = errors.New("redundancy: variant panicked")

// guarded wraps a Variant so that panics during Execute are contained and
// reported as errors.
type guarded[I, O any] struct {
	inner Variant[I, O]
}

var _ Variant[int, int] = (*guarded[int, int])(nil)

// Guard returns a Variant that executes v with panic containment: a
// panicking execution returns an error wrapping ErrVariantPanicked
// instead of crashing the caller. The pattern executors apply this
// containment automatically; Guard is for code paths that execute
// variants directly.
func Guard[I, O any](v Variant[I, O]) Variant[I, O] {
	return &guarded[I, O]{inner: v}
}

func (g *guarded[I, O]) Name() string { return g.inner.Name() }

func (g *guarded[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return ExecuteGuarded(ctx, g.inner, input)
}

// ExecuteGuarded executes v with Guard's panic containment, and the
// same error, without wrapping v: the pattern executors call it on
// every variant execution.
func ExecuteGuarded[I, O any](ctx context.Context, v Variant[I, O], input I) (out O, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero O
			out = zero
			// An error-typed panic value (e.g. an injected fault's
			// ActivatedError) stays in the chain for errors.Is/As.
			if e, ok := r.(error); ok {
				err = fmt.Errorf("variant %s: %w: %w", v.Name(), e, ErrVariantPanicked)
			} else {
				err = fmt.Errorf("variant %s: %v: %w", v.Name(), r, ErrVariantPanicked)
			}
		}
	}()
	return v.Execute(ctx, input)
}
