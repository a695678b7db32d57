// Package selfcheck implements self-checking programming (Laprie et al.):
// each functionality is delivered by self-checking components that are
// executed in parallel. A self-checking component is either an
// implementation with a built-in acceptance test (an explicit
// adjudicator) or a pair of independently designed implementations with a
// final comparison (an implicit adjudicator). At runtime one component is
// "acting" while the others are "hot spares"; when the acting component
// fails its own check, it is discarded and the highest-priority healthy
// spare is promoted, with no rollback needed because the spares computed
// the result in parallel.
//
// Taxonomy position (paper Table 2): deliberate intention, code
// redundancy, reactive explicit-or-implicit adjudicator, development
// faults. Architectural pattern: parallel selection (Figure 1b).
package selfcheck

import (
	"context"
	"fmt"
	"slices"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/pattern"
)

// Component is a self-checking component: it computes a result and judges
// its own correctness.
type Component[I, O any] interface {
	// Name identifies the component.
	Name() string
	// Run computes the result and applies the component's built-in
	// check. A non-nil error means the component detected its own
	// failure.
	Run(ctx context.Context, input I) (O, error)
}

// testedComponent is an implementation guarded by a built-in acceptance
// test (explicit adjudicator).
type testedComponent[I, O any] struct {
	impl core.Variant[I, O]
	test core.AcceptanceTest[I, O]
}

var _ Component[int, int] = (*testedComponent[int, int])(nil)

// WithTest builds a self-checking component from an implementation and a
// built-in acceptance test.
func WithTest[I, O any](impl core.Variant[I, O], test core.AcceptanceTest[I, O]) (Component[I, O], error) {
	if impl == nil {
		return nil, core.ErrNoVariants
	}
	if test == nil {
		return nil, fmt.Errorf("selfcheck: nil acceptance test")
	}
	return &testedComponent[I, O]{impl: impl, test: test}, nil
}

func (c *testedComponent[I, O]) Name() string { return c.impl.Name() }

func (c *testedComponent[I, O]) Run(ctx context.Context, input I) (O, error) {
	var zero O
	out, err := c.impl.Execute(ctx, input)
	if err != nil {
		return zero, err
	}
	if err := c.test(input, out); err != nil {
		return zero, fmt.Errorf("built-in test of %s: %w", c.impl.Name(), err)
	}
	return out, nil
}

// pairComponent is a pair of independently designed implementations with
// a final comparison (implicit adjudicator): a two-variant parallel
// evaluation whose adjudicator compares the halves.
type pairComponent[I, O any] struct {
	name string
	pe   *pattern.ParallelEvaluation[I, O]
}

var _ Component[int, int] = (*pairComponent[int, int])(nil)

// Pair builds a self-checking component from two independently designed
// implementations whose results are compared with eq.
func Pair[I, O any](a, b core.Variant[I, O], eq core.Equal[O]) (Component[I, O], error) {
	if a == nil || b == nil {
		return nil, core.ErrNoVariants
	}
	if eq == nil {
		return nil, fmt.Errorf("selfcheck: nil equality")
	}
	name := a.Name() + "+" + b.Name()
	compare := core.AdjudicatorFunc[O](func(rs []core.Result[O]) (O, error) {
		var zero O
		for _, r := range rs {
			if r.Err != nil {
				return zero, fmt.Errorf("half %s: %w", r.Variant, r.Err)
			}
		}
		if !eq(rs[0].Value, rs[1].Value) {
			return zero, fmt.Errorf("pair %s: %w", name, core.ErrDivergence)
		}
		return rs[0].Value, nil
	})
	pe, err := pattern.NewParallelEvaluation([]core.Variant[I, O]{a, b}, compare)
	if err != nil {
		return nil, err
	}
	return &pairComponent[I, O]{name: name, pe: pe}, nil
}

func (c *pairComponent[I, O]) Name() string { return c.name }

func (c *pairComponent[I, O]) Run(ctx context.Context, input I) (O, error) {
	return c.pe.Execute(ctx, input)
}

// System executes self-checking components in parallel with hot-spare
// promotion: the first configured healthy component is the acting one;
// components whose self-check fails are discarded permanently, consuming
// the initial redundancy, as the paper notes for deliberate code
// redundancy. It is a parallel selection whose variants are the
// components and whose acceptance tests accept everything, because each
// component has already checked itself.
type System[I, O any] struct {
	names []string
	ps    *pattern.ParallelSelection[I, O]
}

var _ core.Executor[int, int] = (*System[int, int])(nil)

// NewSystem builds a self-checking system; the first component acts, the
// rest are hot spares in promotion order. Pattern options (observer,
// metrics, resilience policies) configure the underlying parallel
// selection.
func NewSystem[I, O any](components []Component[I, O], opts ...pattern.Option) (*System[I, O], error) {
	if len(components) == 0 {
		return nil, core.ErrNoVariants
	}
	names := make([]string, len(components))
	variants := make([]core.Variant[I, O], len(components))
	tests := make([]core.AcceptanceTest[I, O], len(components))
	for i, c := range components {
		names[i] = c.Name()
		variants[i] = core.NewVariant(c.Name(), c.Run)
		tests[i] = acceptChecked[I, O]
	}
	ps, err := pattern.NewParallelSelection(variants, tests, opts...)
	if err != nil {
		return nil, err
	}
	return &System[I, O]{names: names, ps: ps}, nil
}

// acceptChecked is the system-level acceptance test: a component's result
// has passed the component's own check.
func acceptChecked[I, O any](I, O) error { return nil }

// Acting returns the name of the current acting component, or "" if all
// components have been discarded.
func (s *System[I, O]) Acting() string {
	discarded := s.ps.Disabled()
	for _, name := range s.names {
		if !slices.Contains(discarded, name) {
			return name
		}
	}
	return ""
}

// Discarded returns the names of discarded components in configuration
// order.
func (s *System[I, O]) Discarded() []string { return s.ps.Disabled() }

// Execute implements core.Executor: all healthy components run in
// parallel; the acting component's result is delivered if its self-check
// passes, otherwise the component is discarded and the next healthy
// spare's result is delivered, and so on.
func (s *System[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return s.ps.Execute(ctx, input)
}
