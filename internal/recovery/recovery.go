// Package recovery implements recovery blocks (Randell): a primary module
// and independently designed alternates execute sequentially; an
// explicitly designed acceptance test validates each result, and on
// rejection the system state is rolled back to the checkpoint taken on
// entry before the next alternate runs.
//
// Taxonomy position (paper Table 2): deliberate intention, code
// redundancy, reactive explicit adjudicator, development faults.
// Architectural pattern: sequential alternatives (Figure 1c).
package recovery

import (
	"context"
	"fmt"

	"github.com/softwarefaults/redundancy/internal/checkpoint"
	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/pattern"
)

// Block is a recovery block over a shared mutable state S: the "recovery
// point" checkpoint is taken when Execute enters the block, and the state
// is restored before each alternate runs.
//
// The alternates receive the state by pointer and may mutate it; the
// acceptance test sees the input and the produced output.
type Block[S, I, O any] struct {
	name  string
	state *S
	store *checkpoint.Store[S]
	seq   *pattern.SequentialAlternatives[I, O]

	observer obs.Observer
}

var _ core.Executor[int, int] = (*Block[struct{}, int, int])(nil)

// Option configures a Block.
type Option[S, I, O any] func(*Block[S, I, O])

// WithObserver attaches an observer. The block forwards it to the
// underlying sequential-alternatives executor, so the observer sees the
// full request span: each alternate as a variant span, state restoration
// as rollback events, retried alternates as retry attempts, and the
// acceptance-test verdict as the adjudication. Repeated options combine.
func WithObserver[S, I, O any](o obs.Observer) Option[S, I, O] {
	return func(b *Block[S, I, O]) { b.observer = obs.Combine(b.observer, o) }
}

// NewBlock builds a recovery block named name over state. The first
// variant is the primary, the rest are alternates in trial order; test is
// the acceptance test guarding the block's exit.
func NewBlock[S, I, O any](name string, state *S, test core.AcceptanceTest[I, O], variants []core.Variant[I, O], opts ...Option[S, I, O]) (*Block[S, I, O], error) {
	if state == nil {
		return nil, fmt.Errorf("recovery: nil state")
	}
	if test == nil {
		return nil, fmt.Errorf("recovery: nil acceptance test")
	}
	if len(variants) == 0 {
		return nil, core.ErrNoVariants
	}
	b := &Block[S, I, O]{
		name:  name,
		state: state,
		store: checkpoint.NewStore[S](1),
	}
	for _, o := range opts {
		o(b)
	}
	seq, err := pattern.NewSequentialAlternatives(variants, test, b.rollback,
		pattern.WithObserver(b.observer))
	if err != nil {
		return nil, err
	}
	b.seq = seq
	return b, nil
}

// Name returns the block's name.
func (b *Block[S, I, O]) Name() string { return b.name }

// rollback restores the state to the recovery point: the store holds one
// checkpoint, the one Execute saved on entry.
func (b *Block[S, I, O]) rollback(context.Context) error {
	restored, _, err := b.store.Latest()
	if err != nil {
		return err
	}
	*b.state = restored
	return nil
}

// Execute implements core.Executor: it establishes the recovery point,
// then runs the sequential-alternatives pattern with rollback to that
// point between attempts. If every alternate fails, the state is restored
// to the recovery point and the error reports the exhausted block.
func (b *Block[S, I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	if _, err := b.store.Save(*b.state); err != nil {
		return zero, fmt.Errorf("recovery point for block %s: %w", b.name, err)
	}
	out, err := b.seq.Execute(ctx, input)
	if err != nil {
		// Leave the state as it was on entry: a failed block must not
		// publish partial effects.
		if rbErr := b.rollback(ctx); rbErr != nil {
			return zero, fmt.Errorf("block %s failed and rollback failed: %w", b.name, rbErr)
		}
		return zero, fmt.Errorf("recovery block %s exhausted: %w", b.name, err)
	}
	return out, nil
}
