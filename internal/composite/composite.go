// Package composite implements fault-tolerant process composition in the
// style of the paper's web-service sources: Dobson's WS-BPEL realization
// of the classic fault-tolerance patterns (retry, sequential alternates à
// la recovery blocks, parallel voting à la N-version programming, and
// hot-spare self-checking invocations), plus BPEL-style compensation
// handlers that undo the completed steps of a process when a later step
// fails irrecoverably.
//
// A Process is an ordered pipeline of Steps over a flowing value. Each
// step's invocation strategy is one of the framework's pattern executors
// and nothing more: Retry is pattern.NewRetry, Alternates a sequential-
// alternatives executor, Voting a parallel evaluation, HotSpares a
// parallel selection. The package runs no invocation loop of its own; it
// is a thin composition layer showing how the Figure 1 patterns embed in
// a service orchestration.
//
// The composition layer participates in the observation layer: the
// strategy helpers accept pattern options (so pattern.WithObserver flows
// through to the underlying executors), and a
// Process itself can be observed with Observe — each step becomes a
// variant span and compensation handlers are reported as rollbacks.
package composite

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// Process errors.
var (
	// ErrProcessFailed reports an unrecoverable step failure (after
	// compensation has run).
	ErrProcessFailed = errors.New("composite: process failed")
	// ErrCompensationFailed reports that undoing completed steps failed;
	// the process state may be inconsistent.
	ErrCompensationFailed = errors.New("composite: compensation failed")
)

// Step is one unit of a process: an invocation strategy plus an optional
// compensation handler that undoes the step's effect. T is the value type
// flowing through the pipeline.
type Step[T any] struct {
	// Name identifies the step.
	Name string
	// Invoke executes the step's logic (built by the strategy helpers).
	Invoke core.Executor[T, T]
	// Compensate undoes the step after a later step fails; nil means the
	// step needs no compensation.
	Compensate func(ctx context.Context, input T) error
}

// Retry wraps a single endpoint with up to retries re-invocations (the
// BPEL retry command). It is pattern.NewRetry: the Single executor
// labelled "retry", so pattern options configure it as they do every
// other strategy. An observer sees each attempt as a variant span,
// re-invocations as retry events, and the request as accepted when some
// attempt succeeded, masked when earlier attempts failed.
// pattern.WithRetryPolicy paces the re-invocations and charges a shared
// retry budget; with no policy they are immediate.
func Retry[T any](v core.Variant[T, T], retries int, opts ...pattern.Option) (core.Executor[T, T], error) {
	return pattern.NewRetry(v, retries, opts...)
}

// Alternates builds a sequential-alternates invocation (statically
// provided alternate services, as in Dobson's recovery-block flavor).
// Pattern options (observer, metrics, per-variant timeout) are forwarded
// to the underlying Figure 1c executor. Passing pattern.WithRanker (for
// example a health.Engine diagnosing the same observer stream) makes the
// invocation health-ranked: every request tries the currently healthiest
// endpoint first instead of the configured order. Resilience options
// (pattern.WithBreaker, WithRetryPolicy, WithBulkhead, WithDeadline,
// WithFallback) flow through to the executor, so alternates honor
// breakers, retry budgets and backoff between endpoints.
func Alternates[T any](test core.AcceptanceTest[T, T], endpoints []core.Variant[T, T], opts ...pattern.Option) (core.Executor[T, T], error) {
	return pattern.NewSequentialAlternatives(endpoints, test, nil, opts...)
}

// Voting builds a parallel voting invocation over independently operated
// endpoints (Dobson's N-version flavor; WS-FTM's consensus voting).
// Pattern options are forwarded to the underlying Figure 1a executor.
func Voting[T any](eq core.Equal[T], endpoints []core.Variant[T, T], opts ...pattern.Option) (core.Executor[T, T], error) {
	return pattern.NewParallelEvaluation(endpoints, vote.Majority(eq), opts...)
}

// HotSpares builds a parallel-selection invocation: the acting endpoint's
// validated result is preferred, spares run in parallel (Dobson's
// self-checking flavor). Failed endpoints are re-enabled per invocation
// because service failures are treated as transient here. Pattern options
// are forwarded to the underlying Figure 1b executor. Passing
// pattern.WithRanker makes the acting/spare priority health-ranked: the
// currently healthiest endpoint's validated result is preferred.
// Resilience options flow through: with pattern.WithBreaker a spare whose
// breaker is open sits the request out (skipped, not disabled) instead of
// hammering a known-bad endpoint.
func HotSpares[T any](test core.AcceptanceTest[T, T], endpoints []core.Variant[T, T], opts ...pattern.Option) (core.Executor[T, T], error) {
	tests := make([]core.AcceptanceTest[T, T], len(endpoints))
	for i := range tests {
		tests[i] = test
	}
	ps, err := pattern.NewParallelSelection(endpoints, tests, opts...)
	if err != nil {
		return nil, err
	}
	return core.ExecutorFunc[T, T](func(ctx context.Context, in T) (T, error) {
		defer ps.Reset()
		return ps.Execute(ctx, in)
	}), nil
}

// Process is an ordered, compensable pipeline over values of type T.
type Process[T any] struct {
	name     string
	execName string
	steps    []Step[T]
	observer obs.Observer

	// CompensationsRun counts compensation handlers executed.
	CompensationsRun int
}

// NewProcess builds a process from steps.
func NewProcess[T any](name string, steps ...Step[T]) (*Process[T], error) {
	if len(steps) == 0 {
		return nil, errors.New("composite: no steps")
	}
	for i, s := range steps {
		if s.Invoke == nil {
			return nil, fmt.Errorf("composite: step %d (%s) has nil Invoke", i, s.Name)
		}
	}
	ss := make([]Step[T], len(steps))
	copy(ss, steps)
	return &Process[T]{name: name, execName: "process:" + name, steps: ss}, nil
}

// Name returns the process name.
func (p *Process[T]) Name() string { return p.name }

// Observe attaches an observer to the process itself (executor name
// "process:<name>"): each step is reported as a variant span, each
// compensation handler as a rollback, and the process end as the request
// outcome. Observers attached to the steps' own executors (via the
// strategy helpers) are independent and compose freely. Observe returns
// the process for chaining; repeated calls combine observers.
func (p *Process[T]) Observe(o obs.Observer) *Process[T] {
	p.observer = obs.Combine(p.observer, o)
	return p
}

// Execute runs the pipeline. On an unrecoverable step failure, the
// compensation handlers of all previously completed steps run in reverse
// order (the BPEL compensation semantics), and the returned error wraps
// ErrProcessFailed — or ErrCompensationFailed if undo itself failed.
func (p *Process[T]) Execute(ctx context.Context, input T) (T, error) {
	var zero T
	o := p.observer
	var (
		req   uint64
		start time.Time
	)
	if o != nil {
		req = obs.NextRequestID()
		start = time.Now()
		o.RequestStart(p.execName, req)
		if obs.WantsTrace(o) {
			var tc obs.TraceContext
			ctx, tc = obs.StartTrace(ctx)
			obs.EmitRequestTraced(o, p.execName, req, tc)
		}
	}
	finish := func(accepted bool, outcome obs.Outcome) {
		if o == nil {
			return
		}
		o.Adjudicated(p.execName, req, accepted, outcome != obs.OutcomeSuccess)
		o.RequestEnd(p.execName, req, time.Since(start), outcome)
	}

	value := input
	inputs := make([]T, 0, len(p.steps))
	for i, s := range p.steps {
		inputs = append(inputs, value)
		var stepStart time.Time
		if o != nil {
			o.VariantStart(p.execName, s.Name, req)
			stepStart = time.Now()
		}
		out, err := s.Invoke.Execute(ctx, value)
		if o != nil {
			o.VariantEnd(p.execName, s.Name, req, time.Since(stepStart), err)
		}
		if err == nil {
			value = out
			continue
		}
		// Compensate completed steps in reverse.
		for j := i - 1; j >= 0; j-- {
			comp := p.steps[j].Compensate
			if comp == nil {
				continue
			}
			p.CompensationsRun++
			if o != nil {
				o.Rollback(p.execName, req)
			}
			if cerr := comp(ctx, inputs[j]); cerr != nil {
				finish(false, obs.OutcomeFailed)
				return zero, fmt.Errorf("step %s failed (%v); undoing %s: %w: %w",
					s.Name, err, p.steps[j].Name, ErrCompensationFailed, cerr)
			}
		}
		finish(false, obs.OutcomeFailed)
		return zero, fmt.Errorf("step %s: %w: %w", s.Name, ErrProcessFailed, err)
	}
	finish(true, obs.OutcomeSuccess)
	return value, nil
}
