package faultmodel

import (
	"context"
	"math"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
)

func TestParseFailSlowSpec(t *testing.T) {
	tests := []struct {
		spec    string
		profile SlowProfile
		factor  float64
		wantErr bool
	}{
		{"constant", SlowConstant, 20, false},
		{"constant:8", SlowConstant, 8, false},
		{"progressive:50", SlowProgressive, 50, false},
		{"bursts:2.5", SlowBursts, 2.5, false},
		{"bogus", "", 0, true},
		{"constant:1", "", 0, true},
		{"constant:0.5", "", 0, true},
		{"constant:x", "", 0, true},
		{"constant:NaN", "", 0, true},
		{"constant:Inf", "", 0, true},
		{"constant:+Inf", "", 0, true},
		{"bursts:-Inf", "", 0, true},
		{"progressive:1e400", "", 0, true},
		{"", "", 0, true},
	}
	for _, tt := range tests {
		profile, factor, err := ParseFailSlowSpec(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseFailSlowSpec(%q) err = %v, wantErr %v", tt.spec, err, tt.wantErr)
			continue
		}
		if err == nil && (profile != tt.profile || factor != tt.factor) {
			t.Errorf("ParseFailSlowSpec(%q) = (%v, %g), want (%v, %g)",
				tt.spec, profile, factor, tt.profile, tt.factor)
		}
	}
}

// FuzzParseFailSlowSpec: the gray-fault flag parser never panics, and
// a spec it accepts names a known profile with a finite factor above 1
// that survives a round trip through the canonical "profile:factor"
// form.
func FuzzParseFailSlowSpec(f *testing.F) {
	for _, spec := range []string{
		"constant", "constant:8", "progressive:50", "bursts:2.5", "bogus",
		"constant:1", "constant:1.0000000000000002", "constant:NaN",
		"bursts:-Inf", "progressive:1e400", "constant:0x1p4", "bursts:1_000",
		"constant:8:9", ":8", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		profile, factor, err := ParseFailSlowSpec(spec)
		if err != nil {
			return
		}
		if _, err := ParseSlowProfile(string(profile)); err != nil {
			t.Fatalf("ParseFailSlowSpec(%q) accepted unknown profile %q", spec, profile)
		}
		if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 1 {
			t.Fatalf("ParseFailSlowSpec(%q) accepted factor %g", spec, factor)
		}
		canonical := string(profile) + ":" + strconv.FormatFloat(factor, 'g', -1, 64)
		p2, f2, err := ParseFailSlowSpec(canonical)
		if err != nil || p2 != profile || f2 != factor {
			t.Fatalf("ParseFailSlowSpec(%q) = (%v, %g), but its canonical form %q re-parses to (%v, %g, %v)",
				spec, profile, factor, canonical, p2, f2, err)
		}
	})
}

// slowBase returns a variant that records its call count and answers
// correctly and instantly — any measured latency is the wrapper's.
func slowBase(calls *atomic.Int64) core.Variant[int, int] {
	return core.NewVariant("gray", func(ctx context.Context, input int) (int, error) {
		calls.Add(1)
		return 2 * input, nil
	})
}

func TestFailSlowAnswersStayCorrect(t *testing.T) {
	var calls atomic.Int64
	slow := &FailSlow[int, int]{
		Base:        slowBase(&calls),
		Profile:     SlowConstant,
		Factor:      5,
		BaseLatency: time.Millisecond,
		Seed:        42,
	}
	start := time.Now()
	got, err := slow.Execute(context.Background(), 21)
	elapsed := time.Since(start)
	if err != nil || got != 42 {
		t.Fatalf("Execute = (%d, %v), want (42, nil): fail-slow must not corrupt answers", got, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("base executed %d times, want 1", calls.Load())
	}
	// Factor 5 over a 1ms base adds a 4ms stall before the base runs.
	if elapsed < 4*time.Millisecond {
		t.Fatalf("constant limp stalled only %v, want ≥ 4ms", elapsed)
	}
}

func TestFailSlowGateAndRejuvenate(t *testing.T) {
	var calls atomic.Int64
	var gateOpen atomic.Bool
	slow := &FailSlow[int, int]{
		Base:        slowBase(&calls),
		Profile:     SlowConstant,
		Factor:      20,
		BaseLatency: time.Millisecond,
		Gate:        gateOpen.Load,
	}
	if slow.Limping() {
		t.Fatal("closed gate: Limping() = true, want false")
	}
	start := time.Now()
	if _, err := slow.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("closed gate stalled %v, want fast path", elapsed)
	}

	gateOpen.Store(true)
	if !slow.Limping() {
		t.Fatal("open gate: Limping() = false, want true")
	}
	// Rejuvenation cures the limp even while the gate stays open.
	slow.Rejuvenate()
	if slow.Limping() {
		t.Fatal("after Rejuvenate: Limping() = true, want false")
	}
	start = time.Now()
	if _, err := slow.Execute(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("cured replica stalled %v, want fast path", elapsed)
	}
}

func TestFailSlowProgressiveRamp(t *testing.T) {
	slow := &FailSlow[int, int]{
		Profile:   SlowProgressive,
		Factor:    21,
		RampCalls: 10,
	}
	// Call 0 is 1/10 of the way up the ramp; call 9 and beyond are at
	// the full factor.
	first := slow.multiplier(0)
	if first <= 1 || first >= 21 {
		t.Fatalf("ramp start multiplier = %g, want strictly between 1 and 21", first)
	}
	mid := slow.multiplier(4)
	if mid <= first {
		t.Fatalf("ramp not monotone: multiplier(4) = %g ≤ multiplier(0) = %g", mid, first)
	}
	if got := slow.multiplier(9); got != 21 {
		t.Fatalf("ramp top multiplier = %g, want 21", got)
	}
	if got := slow.multiplier(500); got != 21 {
		t.Fatalf("past ramp multiplier = %g, want 21", got)
	}
}

func TestFailSlowBurstsSeededAndMixed(t *testing.T) {
	mk := func(seed uint64, replica string) *FailSlow[int, int] {
		return &FailSlow[int, int]{
			Profile:   SlowBursts,
			Factor:    10,
			Seed:      seed,
			Replica:   replica,
			BurstProb: 0.5,
		}
	}
	a, b := mk(7, "r1"), mk(7, "r1")
	slowCalls, fastCalls := 0, 0
	for i := int64(0); i < 200; i++ {
		ma, mb := a.multiplier(i), b.multiplier(i)
		if ma != mb {
			t.Fatalf("same seed+replica disagree at call %d: %g vs %g", i, ma, mb)
		}
		if ma > 1 {
			slowCalls++
		} else {
			fastCalls++
		}
	}
	if slowCalls == 0 || fastCalls == 0 {
		t.Fatalf("bursts not intermittent: %d slow, %d fast of 200", slowCalls, fastCalls)
	}
	// A different replica salt attacks a different schedule.
	c := mk(7, "r2")
	diverged := false
	for i := int64(0); i < 200 && !diverged; i++ {
		diverged = a.multiplier(i) != c.multiplier(i)
	}
	if !diverged {
		t.Fatal("distinct replicas share a burst schedule; salt is not mixed in")
	}
}

func TestFailSlowStallHonorsContext(t *testing.T) {
	var calls atomic.Int64
	slow := &FailSlow[int, int]{
		Base:        slowBase(&calls),
		Profile:     SlowConstant,
		Factor:      1000,
		BaseLatency: 10 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := slow.Execute(ctx, 1)
	if err == nil {
		t.Fatal("canceled stall returned nil error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled stall pinned for %v; sleep ignores the context", elapsed)
	}
	if calls.Load() != 0 {
		t.Fatal("base executed after cancellation")
	}
}
