// Package resilience is the composable policy layer that keeps the
// redundancy mechanisms from amplifying failures: circuit breakers stop
// a deterministically failing (Bohrbug-afflicted) variant from being
// hammered on every request, retry budgets bound how much extra work
// re-execution may add under stress, bulkheads shed overload fast
// instead of queueing to death, deadline policies guarantee that a hung
// variant can never wedge an executor, and degradation ladders keep
// serving (a cached last-good value, then a degraded variant) when the
// redundant executor itself fails.
//
// The paper's reactive techniques (recovery blocks, retry/checkpoint,
// rejuvenation) assume that *something* eventually stops a failing
// component; De Florio's survey of application-layer fault-tolerance
// protocols argues these guards belong in an explicit application-level
// layer, and Shoker's retry-budget argument — spend redundancy only
// where it pays — is exactly what breakers and budgets enforce. This
// package is that layer: plain policy values, wired into the pattern
// executors via pattern.WithBreaker, WithRetryPolicy, WithBulkhead,
// WithDeadline and WithFallback, and into composite retries via the
// same options.
//
// Every policy decision is observable: state transitions and shedding
// decisions emit obs events (BreakerStateChanged, RequestShed,
// DegradedServe), so the metrics handler and trace recorder see the
// policy layer act.
//
// All policies are deterministic given their configuration and, where
// randomness is involved (retry jitter), an explicit xrand seed — the
// same discipline as the rest of the framework, which is what makes the
// chaos campaigns of internal/faultmodel exactly reproducible.
package resilience

import "errors"

// Typed policy errors. Executors wrap them, so test with errors.Is.
var (
	// ErrBreakerOpen is returned (without executing the variant) when a
	// circuit breaker rejects a call.
	ErrBreakerOpen = errors.New("resilience: circuit breaker open")
	// ErrShedded is returned fast when a bulkhead rejects a request
	// under overload instead of queueing it.
	ErrShedded = errors.New("resilience: request shed")
	// ErrDegraded marks an executor failure after the degradation
	// ladder was consulted and could not serve; it wraps the original
	// failure.
	ErrDegraded = errors.New("resilience: degraded, no fallback available")
	// ErrRetryBudgetExhausted is returned when the shared retry budget
	// denies further re-execution.
	ErrRetryBudgetExhausted = errors.New("resilience: retry budget exhausted")
)
