package core

import (
	"context"
	"errors"
	"testing"
)

func TestNewVariant(t *testing.T) {
	v := NewVariant("double", func(_ context.Context, x int) (int, error) {
		return 2 * x, nil
	})
	if v.Name() != "double" {
		t.Errorf("Name = %q", v.Name())
	}
	got, err := v.Execute(context.Background(), 21)
	if err != nil || got != 42 {
		t.Errorf("Execute = (%d, %v), want (42, nil)", got, err)
	}
}

func TestVariantErrorPropagation(t *testing.T) {
	wantErr := errors.New("boom")
	v := NewVariant("fails", func(_ context.Context, _ int) (int, error) {
		return 0, wantErr
	})
	_, err := v.Execute(context.Background(), 0)
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
}

func TestResultOK(t *testing.T) {
	ok := Result[int]{Value: 1}
	if !ok.OK() {
		t.Error("success result reported as not OK")
	}
	bad := Result[int]{Err: errors.New("x")}
	if bad.OK() {
		t.Error("failed result reported as OK")
	}
}

func TestAdjudicatorFunc(t *testing.T) {
	first := AdjudicatorFunc[string](func(results []Result[string]) (string, error) {
		for _, r := range results {
			if r.OK() {
				return r.Value, nil
			}
		}
		return "", ErrAllVariantsFailed
	})
	got, err := first.Adjudicate([]Result[string]{
		{Variant: "a", Err: errors.New("failed")},
		{Variant: "b", Value: "hello"},
	})
	if err != nil || got != "hello" {
		t.Errorf("Adjudicate = (%q, %v)", got, err)
	}
	_, err = first.Adjudicate([]Result[string]{{Variant: "a", Err: errors.New("x")}})
	if !errors.Is(err, ErrAllVariantsFailed) {
		t.Errorf("err = %v, want ErrAllVariantsFailed", err)
	}
}

func TestExecutorFunc(t *testing.T) {
	e := ExecutorFunc[int, int](func(_ context.Context, x int) (int, error) {
		return x + 1, nil
	})
	got, err := e.Execute(context.Background(), 1)
	if err != nil || got != 2 {
		t.Errorf("Execute = (%d, %v)", got, err)
	}
}

func TestEqualOf(t *testing.T) {
	eq := EqualOf[int]()
	if !eq(3, 3) || eq(3, 4) {
		t.Error("EqualOf[int] misbehaves")
	}
	eqs := EqualOf[string]()
	if !eqs("a", "a") || eqs("a", "b") {
		t.Error("EqualOf[string] misbehaves")
	}
}

func TestIntentionString(t *testing.T) {
	tests := []struct {
		v    Intention
		want string
	}{
		{Deliberate, "deliberate"},
		{Opportunistic, "opportunistic"},
		{Intention(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestRedundancyTypeString(t *testing.T) {
	tests := []struct {
		v    RedundancyType
		want string
	}{
		{CodeRedundancy, "code"},
		{DataRedundancy, "data"},
		{EnvironmentRedundancy, "environment"},
		{RedundancyType(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestAdjudicatorKindString(t *testing.T) {
	tests := []struct {
		v    AdjudicatorKind
		want string
	}{
		{Preventive, "preventive"},
		{ReactiveImplicit, "reactive, implicit"},
		{ReactiveExplicit, "reactive, explicit"},
		{ReactiveBoth, "reactive, expl./impl."},
		{AdjudicatorKind(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestFaultClassString(t *testing.T) {
	tests := []struct {
		v    FaultClass
		want string
	}{
		{DevelopmentFaults, "development"},
		{Bohrbugs, "Bohrbugs"},
		{Heisenbugs, "Heisenbugs"},
		{MaliciousFaults, "malicious"},
		{FaultClass(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPatternString(t *testing.T) {
	tests := []struct {
		v    Pattern
		want string
	}{
		{ParallelEvaluationPattern, "parallel evaluation"},
		{ParallelSelectionPattern, "parallel selection"},
		{SequentialAlternativesPattern, "sequential alternatives"},
		{IntraComponentPattern, "intra-component"},
		{EnvironmentPattern, "environment"},
		{Pattern(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestGuardContainsPanics(t *testing.T) {
	crashing := NewVariant("crashes", func(_ context.Context, _ int) (int, error) {
		panic("nil dereference simulation")
	})
	g := Guard(crashing)
	if g.Name() != "crashes" {
		t.Errorf("Name = %q", g.Name())
	}
	out, err := g.Execute(context.Background(), 1)
	if !errors.Is(err, ErrVariantPanicked) {
		t.Fatalf("err = %v, want ErrVariantPanicked", err)
	}
	if out != 0 {
		t.Errorf("out = %d, want zero value", out)
	}
}

func TestGuardPassesThroughSuccess(t *testing.T) {
	v := NewVariant("fine", func(_ context.Context, x int) (int, error) { return x + 1, nil })
	out, err := Guard(v).Execute(context.Background(), 4)
	if err != nil || out != 5 {
		t.Errorf("= (%d, %v)", out, err)
	}
}

func TestGuardPassesThroughErrors(t *testing.T) {
	boom := errors.New("boom")
	v := NewVariant("errs", func(_ context.Context, _ int) (int, error) { return 0, boom })
	_, err := Guard(v).Execute(context.Background(), 0)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}
