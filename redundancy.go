package redundancy

import (
	"context"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/stats"
	"github.com/softwarefaults/redundancy/internal/vote"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// Core abstractions, re-exported from the framework core.
type (
	// Variant is one implementation of a logically unique functionality.
	Variant[I, O any] = core.Variant[I, O]
	// Result is the outcome of executing one variant.
	Result[O any] = core.Result[O]
	// Adjudicator decides the outcome of a redundant execution.
	Adjudicator[O any] = core.Adjudicator[O]
	// AdjudicatorFunc adapts a function to the Adjudicator interface.
	AdjudicatorFunc[O any] = core.AdjudicatorFunc[O]
	// AcceptanceTest validates a single result against its input.
	AcceptanceTest[I, O any] = core.AcceptanceTest[I, O]
	// Executor runs a redundant computation end to end.
	Executor[I, O any] = core.Executor[I, O]
	// ExecutorFunc adapts a function to the Executor interface.
	ExecutorFunc[I, O any] = core.ExecutorFunc[I, O]
	// Equal compares two outputs for adjudication purposes.
	Equal[O any] = core.Equal[O]
	// Rand is the deterministic PRNG used throughout the framework.
	Rand = xrand.Rand
	// Table is a rendered result table (experiments, taxonomy).
	Table = stats.Table
)

// Taxonomy dimensions (paper Table 1).
type (
	// Intention distinguishes deliberate from opportunistic redundancy.
	Intention = core.Intention
	// RedundancyType identifies what is replicated: code, data, or
	// environment.
	RedundancyType = core.RedundancyType
	// AdjudicatorKind classifies triggers and adjudicators.
	AdjudicatorKind = core.AdjudicatorKind
	// FaultClass identifies the fault classes a mechanism addresses.
	FaultClass = core.FaultClass
	// Pattern identifies the architectural pattern (paper Figure 1).
	Pattern = core.Pattern
)

// Taxonomy dimension values.
const (
	Deliberate    = core.Deliberate
	Opportunistic = core.Opportunistic

	CodeRedundancy        = core.CodeRedundancy
	DataRedundancy        = core.DataRedundancy
	EnvironmentRedundancy = core.EnvironmentRedundancy

	Preventive       = core.Preventive
	ReactiveImplicit = core.ReactiveImplicit
	ReactiveExplicit = core.ReactiveExplicit
	ReactiveBoth     = core.ReactiveBoth

	DevelopmentFaults = core.DevelopmentFaults
	Bohrbugs          = core.Bohrbugs
	Heisenbugs        = core.Heisenbugs
	MaliciousFaults   = core.MaliciousFaults

	ParallelEvaluationPattern     = core.ParallelEvaluationPattern
	ParallelSelectionPattern      = core.ParallelSelectionPattern
	SequentialAlternativesPattern = core.SequentialAlternativesPattern
	IntraComponentPattern         = core.IntraComponentPattern
	EnvironmentPattern            = core.EnvironmentPattern
)

// Sentinel errors shared by the framework's executors.
var (
	// ErrNoVariants reports an executor built or run without variants.
	ErrNoVariants = core.ErrNoVariants
	// ErrAllVariantsFailed reports that no alternative produced an
	// acceptable result.
	ErrAllVariantsFailed = core.ErrAllVariantsFailed
	// ErrNoConsensus reports a vote that reached no quorum.
	ErrNoConsensus = core.ErrNoConsensus
	// ErrNotAccepted reports a result rejected by an acceptance test.
	ErrNotAccepted = core.ErrNotAccepted
	// ErrDivergence reports replicas that must agree but did not.
	ErrDivergence = core.ErrDivergence
	// ErrVariantPanicked reports a variant whose execution panicked and
	// was contained by Guard or a pattern executor.
	ErrVariantPanicked = core.ErrVariantPanicked
)

// NewVariant wraps fn as a named Variant.
func NewVariant[I, O any](name string, fn func(ctx context.Context, input I) (O, error)) Variant[I, O] {
	return core.NewVariant(name, fn)
}

// EqualOf returns an Equal for comparable output types using ==.
func EqualOf[O comparable]() Equal[O] { return core.EqualOf[O]() }

// ApproxEqual returns an Equal for float64 outputs tolerating an absolute
// difference of eps — the inexact comparison heterogeneous numeric
// versions need under voting.
func ApproxEqual(eps float64) Equal[float64] { return vote.ApproxEqual(eps) }

// GuardVariant wraps v with panic containment: a panicking execution
// returns an error wrapping ErrVariantPanicked instead of crashing the
// caller. Pattern executors apply this containment automatically.
func GuardVariant[I, O any](v Variant[I, O]) Variant[I, O] { return core.Guard(v) }

// NewRand returns a deterministic pseudo-random generator for the given
// seed. Every randomized component of the framework takes one of these,
// making runs exactly reproducible.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }
