package faultmodel

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
)

func TestParseAdversarySpec(t *testing.T) {
	tests := []struct {
		spec     string
		strategy AdversaryStrategy
		count    int
		wantErr  bool
	}{
		{"always", AdversaryAlways, 1, false},
		{"intermittent", AdversaryIntermittent, 1, false},
		{"collude:2", AdversaryCollude, 2, false},
		{"always:3", AdversaryAlways, 3, false},
		{"bogus", "", 0, true},
		{"collude:0", "", 0, true},
		{"collude:-1", "", 0, true},
		{"collude:x", "", 0, true},
		{"", "", 0, true},
	}
	for _, tt := range tests {
		strategy, count, err := ParseAdversarySpec(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseAdversarySpec(%q) err = %v, wantErr %v", tt.spec, err, tt.wantErr)
			continue
		}
		if err == nil && (strategy != tt.strategy || count != tt.count) {
			t.Errorf("ParseAdversarySpec(%q) = (%v, %d), want (%v, %d)",
				tt.spec, strategy, count, tt.strategy, tt.count)
		}
	}
}

// FuzzParseAdversarySpec: the -adversary flag parser never panics, and
// a spec it accepts names a known strategy with a count of at least 1
// that survives a round trip through the canonical "strategy:count"
// form.
func FuzzParseAdversarySpec(f *testing.F) {
	for _, spec := range []string{
		"always", "intermittent", "collude:2", "always:3", "bogus",
		"collude:0", "collude:-1", "collude:x", "collude:+2", "collude:007",
		"always:9223372036854775808", "collude:2:3", ":2", "always:", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		strategy, count, err := ParseAdversarySpec(spec)
		if err != nil {
			return
		}
		if _, err := ParseAdversaryStrategy(string(strategy)); err != nil {
			t.Fatalf("ParseAdversarySpec(%q) accepted unknown strategy %q", spec, strategy)
		}
		if count < 1 {
			t.Fatalf("ParseAdversarySpec(%q) accepted count %d", spec, count)
		}
		canonical := string(strategy) + ":" + strconv.Itoa(count)
		s2, c2, err := ParseAdversarySpec(canonical)
		if err != nil || s2 != strategy || c2 != count {
			t.Fatalf("ParseAdversarySpec(%q) = (%v, %d), but its canonical form %q re-parses to (%v, %d, %v)",
				spec, strategy, count, canonical, s2, c2, err)
		}
	})
}

// testAdversary builds an adversary over a correct doubling base.
func testAdversary(strategy AdversaryStrategy, seed uint64, replica string) *Adversary[int, int] {
	return &Adversary[int, int]{
		Base: core.NewVariant("double", func(_ context.Context, x int) (int, error) {
			return 2 * x, nil
		}),
		Strategy: strategy,
		Seed:     seed,
		Replica:  replica,
		Lie:      func(_, correct int) int { return correct + 2 },
		Key:      HashInt,
	}
}

func TestAdversaryAlwaysLies(t *testing.T) {
	adv := testAdversary(AdversaryAlways, 1, "r1")
	for i := 0; i < 50; i++ {
		if !adv.Lies(i) {
			t.Fatalf("always-strategy adversary told the truth on input %d", i)
		}
		got, err := adv.Execute(context.Background(), i)
		if err != nil || got != 2*i+2 {
			t.Fatalf("Execute(%d) = (%d, %v), want the lie %d", i, got, err, 2*i+2)
		}
	}
}

func TestAdversaryIntermittentIsDeterministicAndPartial(t *testing.T) {
	adv := testAdversary(AdversaryIntermittent, 7, "r1")
	lies := 0
	for i := 0; i < 1000; i++ {
		first := adv.Lies(i)
		if first != adv.Lies(i) {
			t.Fatalf("Lies(%d) is not deterministic", i)
		}
		if first {
			lies++
		}
	}
	// Default LieProb is 0.3; a seeded hash roll over 1000 inputs should
	// land well inside [0.2, 0.4].
	if lies < 200 || lies > 400 {
		t.Errorf("intermittent adversary lied on %d/1000 inputs, want ~300", lies)
	}
}

func TestIntermittentAdversariesDoNotAccidentallyCollude(t *testing.T) {
	// Two intermittent liars sharing a seed must attack *different* input
	// subsets — the per-replica salt keeps their lies independent, so a
	// quorum still outvotes them.
	a := testAdversary(AdversaryIntermittent, 7, "r1")
	b := testAdversary(AdversaryIntermittent, 7, "r2")
	both, either := 0, 0
	for i := 0; i < 1000; i++ {
		la, lb := a.Lies(i), b.Lies(i)
		if la || lb {
			either++
		}
		if la && lb {
			both++
		}
	}
	if either == 0 {
		t.Fatal("neither adversary ever lied")
	}
	// Independent 0.3 rolls overlap on ~9% of inputs; identical subsets
	// would overlap on 100% of either's attacks.
	if both*2 > either {
		t.Errorf("intermittent adversaries overlapped on %d of %d attacked inputs — colluding by accident", both, either)
	}
}

func TestColludingAdversariesAgree(t *testing.T) {
	// Same seed, different replica names: colluders must attack the same
	// inputs with the same wrong answer.
	a := testAdversary(AdversaryCollude, 7, "r1")
	b := testAdversary(AdversaryCollude, 7, "r2")
	attacks := 0
	for i := 0; i < 1000; i++ {
		if a.Lies(i) != b.Lies(i) {
			t.Fatalf("colluders disagree on whether to attack input %d", i)
		}
		if !a.Lies(i) {
			continue
		}
		attacks++
		va, errA := a.Execute(context.Background(), i)
		vb, errB := b.Execute(context.Background(), i)
		if errA != nil || errB != nil || va != vb {
			t.Fatalf("colluders' lies diverge on input %d: (%d, %v) vs (%d, %v)", i, va, errA, vb, errB)
		}
		if va == 2*i {
			t.Fatalf("colluder told the truth on attacked input %d", i)
		}
	}
	if attacks == 0 {
		t.Fatal("colluders never attacked")
	}
}

func TestAdversaryPassesThroughBaseFailures(t *testing.T) {
	base := errors.New("base failure")
	adv := &Adversary[int, int]{
		Base: core.NewVariant("broken", func(_ context.Context, _ int) (int, error) {
			return 0, base
		}),
		Strategy: AdversaryAlways,
		Key:      HashInt,
	}
	if _, err := adv.Execute(context.Background(), 1); !errors.Is(err, base) {
		t.Errorf("Execute err = %v, want the base failure (an adversary's power is the wrong answer, not extra crashes)", err)
	}
}

func TestAdversaryNilLieReturnsZero(t *testing.T) {
	adv := testAdversary(AdversaryAlways, 1, "r1")
	adv.Lie = nil
	got, err := adv.Execute(context.Background(), 5)
	if err != nil || got != 0 {
		t.Errorf("Execute = (%d, %v), want the zero-value lie", got, err)
	}
}
