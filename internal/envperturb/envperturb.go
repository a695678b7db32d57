// Package envperturb implements RX-style environment perturbation (Qin,
// Tucek, Zhou, Sundaresan: "Rx: treating bugs as allergies"): after a
// failure, the program is rolled back to a consistent state and
// re-executed under deliberately changed environment conditions — added
// allocation padding, shuffled message delivery, changed scheduling
// priority, shed request load. The perturbations can prevent failures
// such as buffer overflows, deadlocks and other concurrency problems, and
// can avoid interaction faults exploited by malicious requests.
//
// The same executor with an empty perturbation ladder is plain
// checkpoint-recovery: rollback and re-execute, relying on spontaneous
// environment changes only. The contrast between the two is the paper's
// point that checkpoint-recovery handles Heisenbugs while RX additionally
// handles environment-dependent deterministic bugs.
//
// Taxonomy position (paper Table 2): environment perturbation is
// deliberate environment redundancy with a reactive explicit adjudicator
// addressing development faults; checkpoint-recovery is opportunistic
// environment redundancy with a reactive explicit adjudicator addressing
// Heisenbugs.
package envperturb

import (
	"context"
	"errors"
	"fmt"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/pattern"
)

// EnvProgram is a program whose execution depends on explicit environment
// conditions.
type EnvProgram[I, O any] func(ctx context.Context, env *faultmodel.Env, input I) (O, error)

// Rung is one step of the perturbation ladder: a named set of environment
// changes applied together before a re-execution.
type Rung struct {
	// Name identifies the rung in reports ("retry", "pad-64", ...).
	Name string
	// Perturbations are applied to a fresh clone of the base environment.
	Perturbations []faultmodel.Perturbation
}

// DefaultLadder returns the RX-inspired perturbation ladder: plain retry
// first (cheapest), then allocation padding, message shuffling, and
// priority raise with load shedding.
func DefaultLadder() []Rung {
	return []Rung{
		{Name: "retry"},
		{Name: "pad-64", Perturbations: []faultmodel.Perturbation{faultmodel.PadAllocations(64)}},
		{Name: "shuffle", Perturbations: []faultmodel.Perturbation{faultmodel.ShuffleMessages()}},
		{Name: "deprioritize-load", Perturbations: []faultmodel.Perturbation{
			faultmodel.RaisePriority(1),
			faultmodel.ShedLoad(0.25),
		}},
	}
}

// Executor re-executes a failing program under perturbed environments.
// It is a sequential-alternatives executor: the program under the base
// environment, then one alternative per ladder rung, with the rollback
// restoring state before each.
type Executor[I, O any] struct {
	program EnvProgram[I, O]
	baseEnv *faultmodel.Env
	// Rollback restores a consistent state before each re-execution; nil
	// for pure programs.
	rollback func(ctx context.Context) error
	metrics  *core.Metrics
	seq      *pattern.SequentialAlternatives[I, O]

	// lastRung records the name of the rung that produced the last
	// successful result ("" when the first execution succeeded).
	lastRung string
}

var _ core.Executor[int, int] = (*Executor[int, int])(nil)

// Option configures an Executor.
type Option[I, O any] func(*Executor[I, O])

// WithRollback installs the state-restoration hook invoked before every
// re-execution.
func WithRollback[I, O any](rollback func(ctx context.Context) error) Option[I, O] {
	return func(e *Executor[I, O]) { e.rollback = rollback }
}

// WithMetrics attaches a metrics collector.
func WithMetrics[I, O any](m *core.Metrics) Option[I, O] {
	return func(e *Executor[I, O]) { e.metrics = m }
}

// New builds a perturbation executor over program, starting from baseEnv
// (cloned per execution) and escalating through ladder on failure.
func New[I, O any](program EnvProgram[I, O], baseEnv *faultmodel.Env, ladder []Rung, opts ...Option[I, O]) (*Executor[I, O], error) {
	if program == nil {
		return nil, errors.New("envperturb: nil program")
	}
	if baseEnv == nil {
		return nil, errors.New("envperturb: nil base environment")
	}
	e := &Executor[I, O]{program: program, baseEnv: baseEnv}
	for _, o := range opts {
		o(e)
	}
	variants := []core.Variant[I, O]{e.under(Rung{})}
	for _, rung := range ladder {
		variants = append(variants, e.under(rung))
	}
	seq, err := pattern.NewSequentialAlternatives(variants,
		func(I, O) error { return nil }, e.rollback, pattern.WithMetrics(e.metrics))
	if err != nil {
		return nil, err
	}
	e.seq = seq
	return e, nil
}

// under is the alternative that runs the program under rung's
// perturbations of a fresh clone of the base environment; the empty rung
// is the base environment itself. A success records the rung.
func (e *Executor[I, O]) under(rung Rung) core.Variant[I, O] {
	name := rung.Name
	if name == "" {
		name = "base"
	}
	return core.NewVariant(name, func(ctx context.Context, input I) (O, error) {
		env := e.baseEnv.Clone()
		for _, p := range rung.Perturbations {
			p(env)
		}
		out, err := e.program(ctx, env, input)
		if err != nil {
			return out, fmt.Errorf("rung %s: %w", name, err)
		}
		e.lastRung = rung.Name
		return out, nil
	})
}

// NewCheckpointRecovery builds the plain checkpoint-recovery executor: on
// failure the state is rolled back and the program re-executed under the
// unchanged environment, up to retries times. It is the technique
// executor for the paper's "checkpoint-recovery" row.
func NewCheckpointRecovery[I, O any](program EnvProgram[I, O], baseEnv *faultmodel.Env, retries int, opts ...Option[I, O]) (*Executor[I, O], error) {
	if retries < 0 {
		return nil, errors.New("envperturb: negative retries")
	}
	ladder := make([]Rung, retries)
	for i := range ladder {
		ladder[i] = Rung{Name: fmt.Sprintf("retry-%d", i+1)}
	}
	return New(program, baseEnv, ladder, opts...)
}

// LastRung reports which ladder rung produced the last successful result;
// empty means the first execution succeeded.
func (e *Executor[I, O]) LastRung() string { return e.lastRung }

// Execute implements core.Executor.
func (e *Executor[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return e.seq.Execute(ctx, input)
}
