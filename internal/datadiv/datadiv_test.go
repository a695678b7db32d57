package datadiv

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// knightProgram models the canonical data-diversity workload: a program
// with an input-dependent failure region. It computes x*2 but fails when
// x falls in [100, 110) — a narrow failure region that a small input
// perturbation escapes.
func knightProgram() core.Variant[int, int] {
	return core.NewVariant("knight", func(_ context.Context, x int) (int, error) {
		if x >= 100 && x < 110 {
			return 0, errors.New("failure region")
		}
		return x * 2, nil
	})
}

// shiftReexpression moves the input by delta and compensates in the
// output domain via the acceptance test; for the linear program f(x)=2x,
// re-expressing x as x+delta yields f(x+delta) = f(x) + 2*delta, so an
// exact re-expression pairs the shift with output correction. For test
// simplicity we use a program-aware exact re-expression on a wrapper
// input type.
type divInput struct {
	X      int
	Adjust int // output correction accumulated by re-expressions
}

func wrappedProgram() core.Variant[divInput, int] {
	return core.NewVariant("knight", func(_ context.Context, in divInput) (int, error) {
		if in.X >= 100 && in.X < 110 {
			return 0, errors.New("failure region")
		}
		return in.X*2 - in.Adjust, nil
	})
}

func shiftBy(delta int) Reexpression[divInput] {
	return Reexpression[divInput]{
		Name: "shift",
		Apply: func(in divInput, _ *xrand.Rand) divInput {
			return divInput{X: in.X + delta, Adjust: in.Adjust + 2*delta}
		},
		Exact: true,
	}
}

func acceptAnything[I any]() core.AcceptanceTest[I, int] {
	return func(_ I, _ int) error { return nil }
}

func TestRetryBlockSucceedsOnCleanInput(t *testing.T) {
	rb, err := NewRetryBlock(wrappedProgram(), acceptAnything[divInput](),
		[]Reexpression[divInput]{shiftBy(20)}, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rb.Execute(context.Background(), divInput{X: 5})
	if err != nil || got != 10 {
		t.Errorf("= (%d, %v), want (10, nil)", got, err)
	}
}

func TestRetryBlockEscapesFailureRegion(t *testing.T) {
	c := obs.NewCollector()
	rb, err := NewRetryBlock(wrappedProgram(), acceptAnything[divInput](),
		[]Reexpression[divInput]{shiftBy(20)}, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rb.SetObserver(c)
	// x=105 is inside the failure region; shifted to 125 it succeeds, and
	// the exact re-expression makes the corrected output equal 2*105.
	got, err := rb.Execute(context.Background(), divInput{X: 105})
	if err != nil || got != 210 {
		t.Errorf("= (%d, %v), want (210, nil)", got, err)
	}
	s := c.Executor("sequential-alternatives")
	if s.Executions() != 2 || s.FailuresMasked != 1 {
		t.Errorf("metrics = %+v", s)
	}
}

func TestRetryBlockBudgetExhaustion(t *testing.T) {
	// A shift of 2 keeps x=100 inside [100,110) for the whole budget.
	rb, err := NewRetryBlock(wrappedProgram(), acceptAnything[divInput](),
		[]Reexpression[divInput]{shiftBy(2)}, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rb.Execute(context.Background(), divInput{X: 100})
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestRetryBlockCyclesReexpressions(t *testing.T) {
	rb, err := NewRetryBlock(wrappedProgram(), acceptAnything[divInput](),
		[]Reexpression[divInput]{shiftBy(2), shiftBy(4)}, 6, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// x=104: +2 → 106 (fails), +4 → 108 (fails), then cycling re-applies
	// the list from the start on the *original* input, so attempts stay
	// within {106, 108} and the block exhausts. This verifies cycling
	// doesn't accidentally compound shifts.
	_, err = rb.Execute(context.Background(), divInput{X: 104})
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestRetryBlockAcceptanceRejection(t *testing.T) {
	rejectOdd := func(_ divInput, out int) error {
		if out%2 != 0 {
			return core.ErrNotAccepted
		}
		return nil
	}
	prog := core.NewVariant("odd", func(_ context.Context, in divInput) (int, error) {
		return in.X, nil // odd inputs produce odd (rejected) outputs
	})
	rb, err := NewRetryBlock(prog, rejectOdd,
		[]Reexpression[divInput]{{
			Name:  "next-even",
			Apply: func(in divInput, _ *xrand.Rand) divInput { return divInput{X: in.X + 1} },
			Exact: false,
		}}, 2, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rb.Execute(context.Background(), divInput{X: 7})
	if err != nil || got != 8 {
		t.Errorf("= (%d, %v), want approximate result 8", got, err)
	}
}

func TestRetryBlockPanickingProgramIsAFailedAttempt(t *testing.T) {
	c := obs.NewCollector()
	// The program panics inside the failure region instead of returning
	// an error; the shifted re-expression escapes it.
	prog := core.NewVariant("panics", func(_ context.Context, in divInput) (int, error) {
		if in.X >= 100 && in.X < 110 {
			panic("index out of range")
		}
		return in.X*2 - in.Adjust, nil
	})
	rb, err := NewRetryBlock(prog, acceptAnything[divInput](),
		[]Reexpression[divInput]{shiftBy(20)}, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rb.SetObserver(c)
	got, err := rb.Execute(context.Background(), divInput{X: 105})
	if err != nil || got != 210 {
		t.Errorf("= (%d, %v), want (210, nil)", got, err)
	}
	if s := c.Executor("sequential-alternatives"); s.Executions() != 2 || s.FailuresMasked != 1 {
		t.Errorf("metrics = %+v, want the panic counted as one failed attempt", s)
	}
}

func TestRetryBlockConstructorValidation(t *testing.T) {
	prog := wrappedProgram()
	res := []Reexpression[divInput]{shiftBy(1)}
	rng := xrand.New(1)
	if _, err := NewRetryBlock[divInput, int](nil, acceptAnything[divInput](), res, 1, rng); err == nil {
		t.Error("nil program")
	}
	if _, err := NewRetryBlock(prog, nil, res, 1, rng); err == nil {
		t.Error("nil test")
	}
	if _, err := NewRetryBlock(prog, acceptAnything[divInput](), nil, 1, rng); err == nil {
		t.Error("no re-expressions")
	}
	if _, err := NewRetryBlock(prog, acceptAnything[divInput](), res, 0, rng); err == nil {
		t.Error("zero budget")
	}
	if _, err := NewRetryBlock(prog, acceptAnything[divInput](), res, 1, nil); err == nil {
		t.Error("nil rng")
	}
}

func TestNCopyVotesAcrossCopies(t *testing.T) {
	nc, err := NewNCopy(wrappedProgram(),
		[]Reexpression[divInput]{shiftBy(20), shiftBy(40)},
		3,
		vote.Plurality(core.EqualOf[int]()),
		xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Original input 105 fails; both re-expressed copies succeed and
	// agree on the corrected output 210.
	got, err := nc.Execute(context.Background(), divInput{X: 105})
	if err != nil || got != 210 {
		t.Errorf("= (%d, %v), want (210, nil)", got, err)
	}
}

func TestNCopyAllCopiesInFailureRegion(t *testing.T) {
	nc, err := NewNCopy(wrappedProgram(),
		[]Reexpression[divInput]{shiftBy(2)},
		2,
		vote.Plurality(core.EqualOf[int]()),
		xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = nc.Execute(context.Background(), divInput{X: 101})
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestNCopyConstructorValidation(t *testing.T) {
	prog := wrappedProgram()
	res := []Reexpression[divInput]{shiftBy(1)}
	adj := vote.Plurality(core.EqualOf[int]())
	rng := xrand.New(1)
	if _, err := NewNCopy[divInput, int](nil, res, 2, adj, rng); err == nil {
		t.Error("nil program")
	}
	if _, err := NewNCopy(prog, nil, 2, adj, rng); err == nil {
		t.Error("no re-expressions")
	}
	if _, err := NewNCopy(prog, res, 1, adj, rng); err == nil {
		t.Error("n < 2")
	}
	if _, err := NewNCopy(prog, res, 2, nil, rng); err == nil {
		t.Error("nil adjudicator")
	}
	if _, err := NewNCopy(prog, res, 2, adj, nil); err == nil {
		t.Error("nil rng")
	}
}

func TestEscapeProbabilityGrowsWithCopies(t *testing.T) {
	// Statistical check of the data-diversity premise: with a random
	// failure region of width 10 in [0,1000), the probability that at
	// least one of k random re-expressions escapes grows with k.
	rng := xrand.New(42)
	escape := func(k int) float64 {
		const trials = 4000
		escaped := 0
		for tr := 0; tr < trials; tr++ {
			lo := rng.Intn(990)
			x := lo + rng.Intn(10) // input inside the failure region
			for i := 0; i < k; i++ {
				y := (x + 1 + rng.Intn(999)) % 1000
				if y < lo || y >= lo+10 {
					escaped++
					break
				}
			}
		}
		return float64(escaped) / trials
	}
	p1, p3 := escape(1), escape(3)
	if !(p3 > p1) {
		t.Errorf("escape probability should grow with retries: p1=%f p3=%f", p1, p3)
	}
	if math.Abs(p1-0.99) > 0.02 { // 1 - 9/999 ≈ 0.991
		t.Errorf("p1 = %f, want ≈0.99", p1)
	}
}

func TestNVariantCellRoundTrip(t *testing.T) {
	c, err := NewNVariantCell(3, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 {
		t.Errorf("N = %d", c.N())
	}
	c.Set(12345)
	got, err := c.Get()
	if err != nil || got != 12345 {
		t.Errorf("Get = (%d, %v)", got, err)
	}
}

func TestNVariantCellDetectsUniformCorruption(t *testing.T) {
	c, err := NewNVariantCell(2, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	c.Set(42)
	c.CorruptUniform(0xdeadbeef)
	if _, err := c.Get(); !errors.Is(err, ErrCorruptionDetected) {
		t.Errorf("err = %v, want ErrCorruptionDetected", err)
	}
}

func TestNVariantCellDetectsSingleVariantCorruption(t *testing.T) {
	c, err := NewNVariantCell(3, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	c.Set(42)
	if err := c.CorruptVariant(1, 0x1234); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(); !errors.Is(err, ErrCorruptionDetected) {
		t.Errorf("err = %v, want ErrCorruptionDetected", err)
	}
	if err := c.CorruptVariant(9, 0); err == nil {
		t.Error("out-of-range variant: want error")
	}
}

func TestNVariantCellConstructorValidation(t *testing.T) {
	if _, err := NewNVariantCell(1, xrand.New(1)); err == nil {
		t.Error("n < 2: want error")
	}
	if _, err := NewNVariantCell(2, nil); err == nil {
		t.Error("nil rng: want error")
	}
}

// Property: set/get round-trips any value, and uniform corruption with
// any raw value is always detected (masks are distinct by construction).
func TestNVariantCellProperties(t *testing.T) {
	c, err := NewNVariantCell(3, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	f := func(v, raw uint64) bool {
		c.Set(v)
		got, err := c.Get()
		if err != nil || got != v {
			return false
		}
		c.CorruptUniform(raw)
		_, err = c.Get()
		return errors.Is(err, ErrCorruptionDetected)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
