package selfcheck

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/pattern"
)

func impl(name string, v int, fail bool) core.Variant[int, int] {
	return core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
		if fail {
			return 0, errors.New(name + " crashed")
		}
		return v, nil
	})
}

func acceptAll(_ int, _ int) error { return nil }

func mustWithTest(t *testing.T, v core.Variant[int, int], test core.AcceptanceTest[int, int]) Component[int, int] {
	t.Helper()
	c, err := WithTest(v, test)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTestedComponentPassesAndFails(t *testing.T) {
	good := mustWithTest(t, impl("good", 42, false), func(_ int, out int) error {
		if out != 42 {
			return core.ErrNotAccepted
		}
		return nil
	})
	if got, err := good.Run(context.Background(), 0); err != nil || got != 42 {
		t.Errorf("= (%d, %v)", got, err)
	}

	bad := mustWithTest(t, impl("bad", 13, false), func(_ int, out int) error {
		if out != 42 {
			return core.ErrNotAccepted
		}
		return nil
	})
	if _, err := bad.Run(context.Background(), 0); !errors.Is(err, core.ErrNotAccepted) {
		t.Errorf("err = %v, want ErrNotAccepted", err)
	}
}

func TestTestedComponentPropagatesCrash(t *testing.T) {
	c := mustWithTest(t, impl("crash", 0, true), acceptAll)
	if _, err := c.Run(context.Background(), 0); err == nil {
		t.Error("want error from crashing implementation")
	}
}

func TestPairAgreement(t *testing.T) {
	c, err := Pair(impl("a", 7, false), impl("b", 7, false), core.EqualOf[int]())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "a+b" {
		t.Errorf("Name = %q", c.Name())
	}
	got, err := c.Run(context.Background(), 0)
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v)", got, err)
	}
}

func TestPairDivergenceDetected(t *testing.T) {
	c, err := Pair(impl("a", 7, false), impl("b", 8, false), core.EqualOf[int]())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), 0); !errors.Is(err, core.ErrDivergence) {
		t.Errorf("err = %v, want ErrDivergence", err)
	}
}

func TestPairHalfCrashDetected(t *testing.T) {
	c, err := Pair(impl("a", 7, true), impl("b", 7, false), core.EqualOf[int]())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), 0); err == nil {
		t.Error("want error when one half crashes")
	}
}

func TestComponentConstructorValidation(t *testing.T) {
	if _, err := WithTest[int, int](nil, acceptAll); err == nil {
		t.Error("nil impl: want error")
	}
	if _, err := WithTest(impl("a", 1, false), nil); err == nil {
		t.Error("nil test: want error")
	}
	if _, err := Pair[int, int](nil, impl("b", 1, false), core.EqualOf[int]()); err == nil {
		t.Error("nil half: want error")
	}
	if _, err := Pair(impl("a", 1, false), impl("b", 1, false), nil); err == nil {
		t.Error("nil eq: want error")
	}
}

func TestSystemActingResultPreferred(t *testing.T) {
	sys, err := NewSystem([]Component[int, int]{
		mustWithTest(t, impl("acting", 1, false), acceptAll),
		mustWithTest(t, impl("spare", 2, false), acceptAll),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Execute(context.Background(), 0)
	if err != nil || got != 1 {
		t.Errorf("= (%d, %v), want acting result 1", got, err)
	}
	if sys.Acting() != "acting" {
		t.Errorf("Acting = %q", sys.Acting())
	}
}

func TestSystemHotSparePromotion(t *testing.T) {
	var m core.Metrics
	sys, err := NewSystem([]Component[int, int]{
		mustWithTest(t, impl("acting", 0, true), acceptAll),
		mustWithTest(t, impl("spare1", 2, false), acceptAll),
		mustWithTest(t, impl("spare2", 3, false), acceptAll),
	}, pattern.WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Execute(context.Background(), 0)
	if err != nil || got != 2 {
		t.Errorf("= (%d, %v), want promoted spare1 result", got, err)
	}
	if sys.Acting() != "spare1" {
		t.Errorf("Acting after promotion = %q, want spare1", sys.Acting())
	}
	d := sys.Discarded()
	if len(d) != 1 || d[0] != "acting" {
		t.Errorf("Discarded = %v", d)
	}
	s := m.Snapshot()
	if s.FailuresDetected != 1 || s.FailuresMasked != 1 || s.Failures != 0 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestSystemDiscardedComponentNoLongerRuns(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	counting := func(name string, fail bool) Component[int, int] {
		c, err := WithTest(core.NewVariant(name, func(_ context.Context, _ int) (int, error) {
			mu.Lock()
			calls[name]++
			mu.Unlock()
			if fail {
				return 0, errors.New("x")
			}
			return 1, nil
		}), acceptAll)
		if err != nil {
			panic(err)
		}
		return c
	}
	sys, err := NewSystem([]Component[int, int]{
		counting("flaky", true),
		counting("steady", false),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.Execute(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if calls["flaky"] != 1 {
		t.Errorf("discarded component executed %d times, want 1", calls["flaky"])
	}
	if calls["steady"] != 3 {
		t.Errorf("steady executed %d times, want 3", calls["steady"])
	}
}

func TestSystemRedundancyExhaustion(t *testing.T) {
	var m core.Metrics
	sys, err := NewSystem([]Component[int, int]{
		mustWithTest(t, impl("a", 0, true), acceptAll),
	}, pattern.WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(context.Background(), 0); !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := sys.Execute(context.Background(), 0); !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Fatalf("exhausted system: err = %v", err)
	}
	if sys.Acting() != "" {
		t.Errorf("Acting = %q, want empty", sys.Acting())
	}
	if s := m.Snapshot(); s.Failures != 2 {
		t.Errorf("failures = %d", s.Failures)
	}
}

func TestSystemMixedComponentKinds(t *testing.T) {
	pair, err := Pair(impl("p1", 9, false), impl("p2", 9, false), core.EqualOf[int]())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem([]Component[int, int]{
		mustWithTest(t, impl("tested", 0, true), acceptAll),
		pair,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Execute(context.Background(), 0)
	if err != nil || got != 9 {
		t.Errorf("= (%d, %v), want pair result 9", got, err)
	}
}

func TestNewSystemEmpty(t *testing.T) {
	if _, err := NewSystem[int, int](nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("err = %v", err)
	}
}

func TestSystemDiscardsPanickingComponent(t *testing.T) {
	panicking := core.NewVariant("panics", func(context.Context, int) (int, error) { panic("boom") })
	sys, err := NewSystem([]Component[int, int]{
		mustWithTest(t, panicking, acceptAll),
		mustWithTest(t, impl("spare", 2, false), acceptAll),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Execute(context.Background(), 0)
	if err != nil || got != 2 {
		t.Errorf("= (%d, %v), want the spare's result 2", got, err)
	}
	if d := sys.Discarded(); len(d) != 1 || d[0] != "panics" {
		t.Errorf("Discarded = %v, want [panics]", d)
	}
}
