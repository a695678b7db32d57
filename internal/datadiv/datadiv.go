// Package datadiv implements data diversity (Ammann and Knight): the same
// program is re-executed on logically equivalent re-expressions of the
// input, escaping failure regions of the input space without requiring
// multiple program versions. Re-expressions are exact (same expected
// output) or approximate (output acceptable within a tolerance).
//
// Two execution disciplines are provided, mirroring the paper:
//
//   - RetryBlock: the retry-block discipline borrowed from recovery
//     blocks — run on the original input, and on failure retry on
//     re-expressed inputs (sequential alternatives pattern, explicit
//     adjudicator);
//   - NCopy: N-copy programming, the data analogue of N-version
//     programming — run N copies on re-expressed inputs in parallel and
//     vote (parallel evaluation pattern, implicit adjudicator).
//
// The package also implements data diversity for security (Nguyen-Tuong,
// Evans, Knight et al.): an N-variant data representation in which
// identical concrete values have different interpretations per variant,
// so a data-corruption attack that writes the same concrete bytes into
// every variant is detected by comparison.
//
// Taxonomy position (paper Table 2): deliberate intention, data
// redundancy, reactive explicit/implicit adjudicator, development faults
// (and malicious faults for the security form).
package datadiv

import (
	"context"
	"errors"
	"fmt"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// Reexpression transforms an input into a logically equivalent one.
type Reexpression[I any] struct {
	// Name identifies the re-expression in reports.
	Name string
	// Apply produces the re-expressed input. rng may be used for
	// randomized re-expression families; it is never nil when invoked
	// through RetryBlock or NCopy.
	Apply func(input I, rng *xrand.Rand) I
	// Exact reports whether the re-expression preserves the exact
	// expected output (true) or only an acceptable approximation (false).
	Exact bool
}

// RetryBlock is the retry-block discipline of data diversity: a
// sequential-alternatives executor whose alternatives are the program on
// the original input and then on each re-expression in turn.
type RetryBlock[I, O any] struct {
	variants []core.Variant[I, O]
	seq      *pattern.SequentialAlternatives[I, O]
}

var _ core.Executor[int, int] = (*RetryBlock[int, int])(nil)

// NewRetryBlock builds a retry block: program runs on the original input
// first; when the explicit acceptance test rejects the result (or the
// program fails), the input is re-expressed and the program retried, up
// to budget total attempts. Re-expressions are applied in order, cycling
// if the budget exceeds their number. Each attempt's result is tested
// against the input that attempt ran on.
func NewRetryBlock[I, O any](program core.Variant[I, O], test core.AcceptanceTest[I, O], res []Reexpression[I], budget int, rng *xrand.Rand) (*RetryBlock[I, O], error) {
	if program == nil {
		return nil, core.ErrNoVariants
	}
	if test == nil {
		return nil, errors.New("datadiv: nil acceptance test")
	}
	if len(res) == 0 {
		return nil, errors.New("datadiv: no re-expressions")
	}
	if budget < 1 {
		return nil, errors.New("datadiv: budget must be at least 1")
	}
	if rng == nil {
		return nil, errors.New("datadiv: nil rng")
	}
	variants := make([]core.Variant[I, O], budget)
	variants[0] = core.NewVariant("original", func(ctx context.Context, in I) (O, error) {
		return runTested(ctx, program, test, in)
	})
	for k := 1; k < budget; k++ {
		re := res[(k-1)%len(res)]
		variants[k] = core.NewVariant(re.Name, func(ctx context.Context, in I) (O, error) {
			out, err := runTested(ctx, program, test, re.Apply(in, rng))
			if err != nil {
				return out, fmt.Errorf("re-expression %s: %w", re.Name, err)
			}
			return out, nil
		})
	}
	r := &RetryBlock[I, O]{variants: variants}
	r.SetObserver(nil)
	return r, nil
}

// runTested runs program on in and applies the acceptance test to the
// result.
func runTested[I, O any](ctx context.Context, program core.Variant[I, O], test core.AcceptanceTest[I, O], in I) (O, error) {
	var zero O
	out, err := program.Execute(ctx, in)
	if err != nil {
		return zero, err
	}
	if err := test(in, out); err != nil {
		return zero, err
	}
	return out, nil
}

// SetObserver attaches an observer (nil detaches it). It sees the block
// as a sequential-alternatives executor: each attempt a variant span,
// each re-expressed retry a retry event.
func (r *RetryBlock[I, O]) SetObserver(o obs.Observer) {
	// Every variant tests its own result, so the executor's test accepts.
	// The error is dropped because the constructor fails only on an empty
	// variant list or a nil test, and NewRetryBlock rules out both.
	r.seq, _ = pattern.NewSequentialAlternatives(r.variants,
		func(I, O) error { return nil }, nil, pattern.WithObserver(o))
}

// Execute implements core.Executor.
func (r *RetryBlock[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return r.seq.Execute(ctx, input)
}

// NCopy is N-copy programming: the data analogue of N-version
// programming. The single program runs on n re-expressed copies of the
// input (the first copy is the original input) and an implicit vote
// adjudicates the outputs.
type NCopy[I, O any] struct {
	program core.Variant[I, O]
	res     []Reexpression[I]
	n       int
	adj     core.Adjudicator[O]
	rng     *xrand.Rand
}

var _ core.Executor[int, int] = (*NCopy[int, int])(nil)

// NewNCopy builds an N-copy executor with n copies. Copy 0 runs on the
// original input; copy i runs on res[(i-1) mod len(res)] applied to the
// input. adj adjudicates the n outputs (a vote.Plurality is the usual
// choice because approximate re-expressions may produce near-but-unequal
// outputs under exact equality; pass a tolerance-aware vote for numeric
// outputs).
func NewNCopy[I, O any](program core.Variant[I, O], res []Reexpression[I], n int, adj core.Adjudicator[O], rng *xrand.Rand) (*NCopy[I, O], error) {
	if program == nil {
		return nil, core.ErrNoVariants
	}
	if len(res) == 0 {
		return nil, errors.New("datadiv: no re-expressions")
	}
	if n < 2 {
		return nil, errors.New("datadiv: n-copy needs at least 2 copies")
	}
	if adj == nil {
		return nil, errors.New("datadiv: nil adjudicator")
	}
	if rng == nil {
		return nil, errors.New("datadiv: nil rng")
	}
	rs := make([]Reexpression[I], len(res))
	copy(rs, res)
	return &NCopy[I, O]{program: program, res: rs, n: n, adj: adj, rng: rng}, nil
}

// Execute implements core.Executor. Copies run sequentially over the
// deterministic rng (data diversity replicates data, not processes; the
// single program is the unit of execution).
func (c *NCopy[I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	results := make([]core.Result[O], c.n)
	for i := 0; i < c.n; i++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		in := input
		name := "copy-0-original"
		if i > 0 {
			re := c.res[(i-1)%len(c.res)]
			in = re.Apply(input, c.rng)
			name = fmt.Sprintf("copy-%d-%s", i, re.Name)
		}
		out, err := c.program.Execute(ctx, in)
		results[i] = core.Result[O]{Variant: name, Value: out, Err: err}
	}
	return c.adj.Adjudicate(results)
}
