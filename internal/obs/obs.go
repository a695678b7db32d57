// Package obs is the unified observation layer of the framework: a
// single Observer interface receives span-style callbacks from every
// redundancy executor (pattern executors, composite processes, technique
// facades), and composable implementations turn those callbacks into
// per-executor counters and latency histograms (Collector), bounded
// request traces (TraceRecorder), or anything a caller wires in.
//
// The design follows the cost model of the paper's Section 4.1: the two
// quantities that matter for a redundant executor are how many variant
// executions a request costs and how often the executor still fails.
// Observability adds the third axis — where the time goes — which is what
// turns the cost model from an after-the-fact table into something a
// running system can act on (cf. runtime execution profiling as the basis
// for self-healing, arXiv:1203.5748).
//
// Hot-path discipline: executors call observers only after a nil check,
// request IDs are plain atomic increments, and the built-in observers are
// allocation-free per event once an executor/variant pair has been seen.
// A nil Observer (or the Nop observer) adds zero allocations to an
// executor's Execute path; this is asserted by tests and guarded by
// BenchmarkObserverOverhead.
package obs

import (
	"sync/atomic"
	"time"
)

// Outcome classifies the end state of one observed request.
type Outcome uint8

const (
	// OutcomeSuccess: the executor delivered a result and no variant
	// failure had to be masked.
	OutcomeSuccess Outcome = iota
	// OutcomeMasked: at least one variant failed or was rejected, but the
	// executor still delivered a result — redundancy did its job.
	OutcomeMasked
	// OutcomeFailed: the executor itself failed.
	OutcomeFailed
)

// String returns the Prometheus-label-safe name of the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeMasked:
		return "masked"
	case OutcomeFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Observer receives span-style callbacks from redundancy executors.
//
// A request is bracketed by RequestStart and RequestEnd carrying the same
// req identifier (obtained from NextRequestID); every variant execution
// performed on behalf of that request is bracketed by VariantStart and
// VariantEnd. Adjudicated reports the executor's decision: whether a
// result was accepted, and whether any variant failure was detected along
// the way (accepted together with a detected failure means the failure
// was masked). ComponentDisabled, RetryAttempt and Rollback report the
// recovery actions of the Figure 1b/1c executors and of compensable
// composite processes.
//
// Implementations must be safe for concurrent use: a single Observer is
// typically shared by several executors, and parallel executors emit
// variant events from multiple goroutines. Callbacks must not block; they
// sit on the executors' hot path.
type Observer interface {
	// RequestStart marks the beginning of one request on an executor.
	RequestStart(executor string, req uint64)
	// RequestEnd marks the end of the request with its total latency and
	// classified outcome.
	RequestEnd(executor string, req uint64, latency time.Duration, outcome Outcome)
	// VariantStart marks the beginning of one variant execution.
	VariantStart(executor, variant string, req uint64)
	// VariantEnd marks the end of a variant execution; err is the
	// variant's failure, or nil.
	VariantEnd(executor, variant string, req uint64, latency time.Duration, err error)
	// Adjudicated reports the executor's decision for the request:
	// accepted is whether a result was delivered, failureDetected whether
	// any variant result was rejected or failed along the way.
	Adjudicated(executor string, req uint64, accepted, failureDetected bool)
	// ComponentDisabled reports that the executor took component out of
	// rotation (parallel selection, Figure 1b).
	ComponentDisabled(executor, component string, req uint64)
	// RetryAttempt reports that the executor is moving to the attempt-th
	// try on variant after earlier attempts failed (attempt counts from 1
	// for the primary, so retries report 2, 3, ...).
	RetryAttempt(executor, variant string, req uint64, attempt int)
	// Rollback reports a state restoration: the recovery-block rollback
	// before an alternate runs, or a compensation handler of a composite
	// process.
	Rollback(executor string, req uint64)
}

// reqIDs is the process-wide request-identifier source. IDs start at 1 so
// that 0 can serve as the "unobserved" sentinel inside executors.
var reqIDs atomic.Uint64

// NextRequestID returns a process-unique identifier correlating the
// callbacks of one request. Executors call it once per observed request
// and pass the ID to every callback they emit for that request.
func NextRequestID() uint64 { return reqIDs.Add(1) }

// Nop is an Observer that does nothing. It is useful as an embeddable
// default and as the baseline of observer-overhead benchmarks; its
// methods are empty and add zero allocations.
type Nop struct{}

var _ Observer = Nop{}

// RequestStart implements Observer.
func (Nop) RequestStart(string, uint64) {}

// RequestEnd implements Observer.
func (Nop) RequestEnd(string, uint64, time.Duration, Outcome) {}

// VariantStart implements Observer.
func (Nop) VariantStart(string, string, uint64) {}

// VariantEnd implements Observer.
func (Nop) VariantEnd(string, string, uint64, time.Duration, error) {}

// Adjudicated implements Observer.
func (Nop) Adjudicated(string, uint64, bool, bool) {}

// ComponentDisabled implements Observer.
func (Nop) ComponentDisabled(string, string, uint64) {}

// RetryAttempt implements Observer.
func (Nop) RetryAttempt(string, string, uint64, int) {}

// Rollback implements Observer.
func (Nop) Rollback(string, uint64) {}

// multi fans every callback out to a fixed set of observers.
type multi []Observer

var _ Observer = multi(nil)

// Combine composes observers into one. Nil entries are dropped, nested
// combinations are flattened, and the degenerate cases collapse: no live
// observers yield nil (so executors keep their fast path), a single live
// observer is returned as itself.
func Combine(observers ...Observer) Observer {
	var list multi
	for _, o := range observers {
		switch m := o.(type) {
		case nil:
		case multi:
			list = append(list, m...)
		default:
			list = append(list, o)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	default:
		return list
	}
}

// RequestStart implements Observer.
func (m multi) RequestStart(executor string, req uint64) {
	for _, o := range m {
		o.RequestStart(executor, req)
	}
}

// RequestEnd implements Observer.
func (m multi) RequestEnd(executor string, req uint64, latency time.Duration, outcome Outcome) {
	for _, o := range m {
		o.RequestEnd(executor, req, latency, outcome)
	}
}

// VariantStart implements Observer.
func (m multi) VariantStart(executor, variant string, req uint64) {
	for _, o := range m {
		o.VariantStart(executor, variant, req)
	}
}

// VariantEnd implements Observer.
func (m multi) VariantEnd(executor, variant string, req uint64, latency time.Duration, err error) {
	for _, o := range m {
		o.VariantEnd(executor, variant, req, latency, err)
	}
}

// Adjudicated implements Observer.
func (m multi) Adjudicated(executor string, req uint64, accepted, failureDetected bool) {
	for _, o := range m {
		o.Adjudicated(executor, req, accepted, failureDetected)
	}
}

// ComponentDisabled implements Observer.
func (m multi) ComponentDisabled(executor, component string, req uint64) {
	for _, o := range m {
		o.ComponentDisabled(executor, component, req)
	}
}

// RetryAttempt implements Observer.
func (m multi) RetryAttempt(executor, variant string, req uint64, attempt int) {
	for _, o := range m {
		o.RetryAttempt(executor, variant, req, attempt)
	}
}

// Rollback implements Observer.
func (m multi) Rollback(executor string, req uint64) {
	for _, o := range m {
		o.Rollback(executor, req)
	}
}
