package redundancy

import (
	"github.com/softwarefaults/redundancy/internal/composite"
	"github.com/softwarefaults/redundancy/internal/datadiv"
)

// Fault-tolerant process composition (the paper's WS-BPEL sources:
// Dobson's retry / alternate / voting / self-checking constructs plus
// compensation handlers).
type (
	// ProcessStep is one compensable unit of a composite process.
	ProcessStep[T any] = composite.Step[T]
	// CompositeProcess is an ordered, compensable pipeline of steps.
	CompositeProcess[T any] = composite.Process[T]
)

// Composite process errors.
var (
	// ErrProcessFailed reports an unrecoverable step failure after
	// compensation.
	ErrProcessFailed = composite.ErrProcessFailed
	// ErrCompensationFailed reports that undoing completed steps failed.
	ErrCompensationFailed = composite.ErrCompensationFailed
)

// NewCompositeProcess builds a compensable process from steps.
func NewCompositeProcess[T any](name string, steps ...ProcessStep[T]) (*CompositeProcess[T], error) {
	return composite.NewProcess(name, steps...)
}

// RetryInvoke wraps an endpoint with up to retries re-invocations (the
// BPEL retry command). For an observed retry loop, use RetryInvokeOpts.
func RetryInvoke[T any](v Variant[T, T], retries int) (Executor[T, T], error) {
	return composite.Retry(v, retries)
}

// RetryInvokeOpts is RetryInvoke with pattern options: an observer
// attached with WithObserver sees each attempt as a variant span and
// re-invocations as retry events.
func RetryInvokeOpts[T any](v Variant[T, T], retries int, opts ...PatternOption) (Executor[T, T], error) {
	return composite.Retry(v, retries, opts...)
}

// AlternatesInvoke builds a sequential-alternates invocation over
// statically provided endpoints. For an observed invocation, use
// AlternatesInvokeOpts.
func AlternatesInvoke[T any](test AcceptanceTest[T, T], endpoints ...Variant[T, T]) (Executor[T, T], error) {
	return composite.Alternates(test, endpoints)
}

// AlternatesInvokeOpts is AlternatesInvoke with pattern options forwarded
// to the underlying Figure 1c executor.
func AlternatesInvokeOpts[T any](test AcceptanceTest[T, T], endpoints []Variant[T, T], opts ...PatternOption) (Executor[T, T], error) {
	return composite.Alternates(test, endpoints, opts...)
}

// VotingInvoke builds a parallel majority-voting invocation over
// independently operated endpoints. For an observed invocation, use
// VotingInvokeOpts.
func VotingInvoke[T any](eq Equal[T], endpoints ...Variant[T, T]) (Executor[T, T], error) {
	return composite.Voting(eq, endpoints)
}

// VotingInvokeOpts is VotingInvoke with pattern options forwarded to the
// underlying Figure 1a executor.
func VotingInvokeOpts[T any](eq Equal[T], endpoints []Variant[T, T], opts ...PatternOption) (Executor[T, T], error) {
	return composite.Voting(eq, endpoints, opts...)
}

// HotSparesInvoke builds a parallel-selection invocation with per-call
// re-enabled spares. For an observed invocation, use HotSparesInvokeOpts.
func HotSparesInvoke[T any](test AcceptanceTest[T, T], endpoints ...Variant[T, T]) (Executor[T, T], error) {
	return composite.HotSpares(test, endpoints)
}

// HotSparesInvokeOpts is HotSparesInvoke with pattern options forwarded
// to the underlying Figure 1b executor.
func HotSparesInvokeOpts[T any](test AcceptanceTest[T, T], endpoints []Variant[T, T], opts ...PatternOption) (Executor[T, T], error) {
	return composite.HotSpares(test, endpoints, opts...)
}

// Reusable re-expression families for data diversity.

// TranslateInts returns an exact re-expression shifting every element of
// an integer slice by a random offset (for translation-invariant
// computations).
func TranslateInts(maxOffset int) Reexpression[[]int] {
	return datadiv.TranslateInts(maxOffset)
}

// PermuteInts returns an exact re-expression permuting an integer slice
// (for order-invariant computations).
func PermuteInts() Reexpression[[]int] { return datadiv.PermuteInts() }

// JitterFloat returns an approximate re-expression perturbing a float by
// a bounded relative amount.
func JitterFloat(magnitude float64) Reexpression[float64] {
	return datadiv.JitterFloat(magnitude)
}

// ScaleFamily is the stateful scaling re-expression family for
// scale-equivariant computations.
type ScaleFamily = datadiv.ScaleFloat

// NewScaleFamily builds a scaling re-expression family.
func NewScaleFamily(factors ...float64) *ScaleFamily {
	return datadiv.NewScaleFloat(factors...)
}
