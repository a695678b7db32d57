package recovery

import (
	"context"
	"errors"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
)

// ledger is the shared state the block's variants mutate.
type ledger struct {
	Entries []int
}

func TestPrimarySucceeds(t *testing.T) {
	state := ledger{}
	primary := core.NewVariant("primary", func(_ context.Context, x int) (int, error) {
		state.Entries = append(state.Entries, x)
		return x * 2, nil
	})
	b, err := NewBlock("double", &state,
		func(_ int, out int) error {
			if out%2 != 0 {
				return core.ErrNotAccepted
			}
			return nil
		},
		[]core.Variant[int, int]{primary},
	)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "double" {
		t.Errorf("Name = %q", b.Name())
	}
	got, err := b.Execute(context.Background(), 21)
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
	if len(state.Entries) != 1 || state.Entries[0] != 21 {
		t.Errorf("state = %+v", state)
	}
}

func TestAlternateRunsAfterRollback(t *testing.T) {
	state := ledger{Entries: []int{99}}
	// The primary corrupts the state and fails; the alternate must see
	// the original state.
	primary := core.NewVariant("primary", func(_ context.Context, x int) (int, error) {
		state.Entries = append(state.Entries, -1) // partial effect
		return 0, errors.New("primary bug")
	})
	var seenByAlternate int
	alternate := core.NewVariant("alternate", func(_ context.Context, x int) (int, error) {
		seenByAlternate = len(state.Entries)
		state.Entries = append(state.Entries, x)
		return x, nil
	})
	b, err := NewBlock("blk", &state,
		func(_ int, _ int) error { return nil },
		[]core.Variant[int, int]{primary, alternate},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Execute(context.Background(), 5)
	if err != nil || got != 5 {
		t.Fatalf("= (%d, %v)", got, err)
	}
	if seenByAlternate != 1 {
		t.Errorf("alternate saw %d entries; rollback did not undo the primary's partial effect", seenByAlternate)
	}
	if len(state.Entries) != 2 || state.Entries[1] != 5 {
		t.Errorf("final state = %+v", state)
	}
}

func TestAcceptanceTestRejectionTriggersAlternate(t *testing.T) {
	state := struct{ X int }{}
	wrong := core.NewVariant("wrong", func(_ context.Context, _ int) (int, error) {
		return 13, nil // runs fine but produces an unacceptable result
	})
	right := core.NewVariant("right", func(_ context.Context, _ int) (int, error) {
		return 42, nil
	})
	b, err := NewBlock("blk", &state,
		func(_ int, out int) error {
			if out != 42 {
				return core.ErrNotAccepted
			}
			return nil
		},
		[]core.Variant[int, int]{wrong, right},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Execute(context.Background(), 0)
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
}

func TestExhaustedBlockRestoresState(t *testing.T) {
	state := ledger{Entries: []int{1}}
	bad := func(name string) core.Variant[int, int] {
		return core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
			state.Entries = append(state.Entries, 0)
			return 0, errors.New("fails")
		})
	}
	b, err := NewBlock("blk", &state,
		func(_ int, _ int) error { return nil },
		[]core.Variant[int, int]{bad("p"), bad("a1"), bad("a2")},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Execute(context.Background(), 0)
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("err = %v", err)
	}
	if len(state.Entries) != 1 || state.Entries[0] != 1 {
		t.Errorf("state not restored after exhaustion: %+v", state)
	}
}

func TestMetricsAccounting(t *testing.T) {
	state := struct{ X int }{}
	c := obs.NewCollector()
	fail := core.NewVariant("p", func(_ context.Context, _ int) (int, error) {
		return 0, errors.New("x")
	})
	ok := core.NewVariant("a", func(_ context.Context, _ int) (int, error) {
		return 1, nil
	})
	b, err := NewBlock("blk", &state,
		func(_ int, _ int) error { return nil },
		[]core.Variant[int, int]{fail, ok},
		WithObserver[struct{ X int }, int, int](c),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	s := c.Executor("sequential-alternatives")
	if s.Requests != 1 || s.Executions() != 2 || s.FailuresMasked != 1 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestConstructorValidation(t *testing.T) {
	state := 0
	test := func(_ int, _ int) error { return nil }
	v := core.NewVariant("v", func(_ context.Context, x int) (int, error) { return x, nil })
	if _, err := NewBlock[int, int, int]("b", nil, test, []core.Variant[int, int]{v}); err == nil {
		t.Error("nil state: want error")
	}
	if _, err := NewBlock("b", &state, nil, []core.Variant[int, int]{v}); err == nil {
		t.Error("nil test: want error")
	}
	if _, err := NewBlock("b", &state, test, nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("no variants: err = %v", err)
	}
}

func TestRepeatedExecutionsTakeFreshRecoveryPoints(t *testing.T) {
	state := ledger{}
	n := 0
	// Fails on every odd call, succeeds on even calls.
	flaky := core.NewVariant("flaky", func(_ context.Context, x int) (int, error) {
		n++
		state.Entries = append(state.Entries, x)
		if n%2 == 1 {
			return 0, errors.New("odd call fails")
		}
		return x, nil
	})
	good := core.NewVariant("good", func(_ context.Context, x int) (int, error) {
		state.Entries = append(state.Entries, x)
		return x, nil
	})
	b, err := NewBlock("blk", &state,
		func(_ int, _ int) error { return nil },
		[]core.Variant[int, int]{flaky, good},
	)
	if err != nil {
		t.Fatal(err)
	}
	// First request: flaky fails (state rolled back), good appends 1.
	if _, err := b.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Second request: flaky succeeds, appends 2 on top of [1].
	if _, err := b.Execute(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2}
	if len(state.Entries) != len(want) {
		t.Fatalf("state = %+v, want %v", state.Entries, want)
	}
	for i := range want {
		if state.Entries[i] != want[i] {
			t.Fatalf("state = %+v, want %v", state.Entries, want)
		}
	}
}

func TestExhaustedBlockRollbackFailure(t *testing.T) {
	// When both the block and the final restorative rollback fail, the
	// error reports the rollback failure (the state may be inconsistent).
	type unstorable struct {
		Ch chan int // gob cannot encode channels
	}
	state := unstorable{}
	bad := core.NewVariant("bad", func(_ context.Context, _ int) (int, error) {
		return 0, errors.New("fails")
	})
	// Constructing with a non-serializable state makes the initial
	// checkpoint fail at Execute time.
	blk, err := NewBlock("blk", &state,
		func(_ int, _ int) error { return nil },
		[]core.Variant[int, int]{bad})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blk.Execute(context.Background(), 0); err == nil {
		t.Error("unserializable state should fail the recovery point")
	}
}

func TestNestedRecoveryBlocks(t *testing.T) {
	// Randell's original design allows recovery blocks to nest: an
	// alternate of the outer block is itself a recovery block. Blocks are
	// Executors, so nesting is plain composition.
	type state struct{ Log []string }
	outer := state{}
	innerState := state{}

	innerPrimary := core.NewVariant("inner-primary", func(_ context.Context, _ int) (int, error) {
		innerState.Log = append(innerState.Log, "inner-primary")
		return 0, errors.New("inner primary fails")
	})
	innerAlt := core.NewVariant("inner-alt", func(_ context.Context, x int) (int, error) {
		innerState.Log = append(innerState.Log, "inner-alt")
		return x * 10, nil
	})
	inner, err := NewBlock("inner", &innerState,
		func(_ int, _ int) error { return nil },
		[]core.Variant[int, int]{innerPrimary, innerAlt})
	if err != nil {
		t.Fatal(err)
	}

	outerPrimary := core.NewVariant("outer-primary", func(_ context.Context, _ int) (int, error) {
		return 0, errors.New("outer primary fails")
	})
	nested := core.NewVariant("nested-block", inner.Execute)
	outerBlock, err := NewBlock("outer", &outer,
		func(_ int, out int) error {
			if out <= 0 {
				return core.ErrNotAccepted
			}
			return nil
		},
		[]core.Variant[int, int]{outerPrimary, nested})
	if err != nil {
		t.Fatal(err)
	}
	got, err := outerBlock.Execute(context.Background(), 4)
	if err != nil || got != 40 {
		t.Fatalf("nested = (%d, %v), want (40, nil)", got, err)
	}
	// The inner block rolled back its primary's partial effect.
	if len(innerState.Log) != 1 || innerState.Log[0] != "inner-alt" {
		t.Errorf("inner state = %v, want only the alternate's entry", innerState.Log)
	}
}
