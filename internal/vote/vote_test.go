package vote

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/softwarefaults/redundancy/internal/core"
)

func ok(name string, v int) core.Result[int] {
	return core.Result[int]{Variant: name, Value: v}
}

func failed(name string) core.Result[int] {
	return core.Result[int]{Variant: name, Err: errors.New("failed")}
}

func TestVersionsNeeded(t *testing.T) {
	tests := []struct{ k, want int }{
		{-1, 1}, {0, 1}, {1, 3}, {2, 5}, {3, 7},
	}
	for _, tt := range tests {
		if got := VersionsNeeded(tt.k); got != tt.want {
			t.Errorf("VersionsNeeded(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestTolerableFaults(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {7, 3},
	}
	for _, tt := range tests {
		if got := TolerableFaults(tt.n); got != tt.want {
			t.Errorf("TolerableFaults(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// Property: the two quorum functions are inverses on the k-fault boundary.
func TestQuorumDuality(t *testing.T) {
	f := func(k uint8) bool {
		kk := int(k % 100)
		return TolerableFaults(VersionsNeeded(kk)) == kk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMajoritySelectsQuorumValue(t *testing.T) {
	adj := Majority(core.EqualOf[int]())
	got, err := adj.Adjudicate([]core.Result[int]{ok("a", 7), ok("b", 7), ok("c", 9)})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v), want (7, nil)", got, err)
	}
}

func TestMajorityCountsAgainstAllVariants(t *testing.T) {
	adj := Majority(core.EqualOf[int]())
	// 2 agreeing out of 5 variants is not a strict majority even though
	// the other three failed outright.
	_, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 7), ok("b", 7), failed("c"), failed("d"), failed("e"),
	})
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("err = %v, want ErrNoConsensus", err)
	}
	// 3 of 5 is a strict majority.
	got, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 7), ok("b", 7), ok("c", 7), failed("d"), failed("e"),
	})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v), want (7, nil)", got, err)
	}
}

func TestMajorityToleranceBoundary(t *testing.T) {
	// For n = 2k+1 versions, the vote succeeds with up to k wrong results
	// and fails with k+1 (wrong results all agreeing with each other is
	// the worst case).
	for _, k := range []int{1, 2, 3} {
		n := VersionsNeeded(k)
		adj := Majority(core.EqualOf[int]())
		build := func(wrong int) []core.Result[int] {
			rs := make([]core.Result[int], 0, n)
			for i := 0; i < n-wrong; i++ {
				rs = append(rs, ok("good", 1))
			}
			for i := 0; i < wrong; i++ {
				rs = append(rs, ok("bad", 2))
			}
			return rs
		}
		if got, err := adj.Adjudicate(build(k)); err != nil || got != 1 {
			t.Errorf("n=%d with %d faults: = (%d, %v), want (1, nil)", n, k, got, err)
		}
		if got, err := adj.Adjudicate(build(k + 1)); err == nil && got == 1 {
			t.Errorf("n=%d with %d faults: vote should not select the correct value", n, k+1)
		}
	}
}

func TestMajorityEmpty(t *testing.T) {
	adj := Majority(core.EqualOf[int]())
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("err = %v, want ErrNoVariants", err)
	}
}

func TestPlurality(t *testing.T) {
	adj := Plurality(core.EqualOf[int]())
	got, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 7), ok("b", 7), failed("c"), failed("d"), failed("e"),
	})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v), want (7, nil)", got, err)
	}
}

func TestPluralityTie(t *testing.T) {
	adj := Plurality(core.EqualOf[int]())
	_, err := adj.Adjudicate([]core.Result[int]{ok("a", 1), ok("b", 2)})
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("tie: err = %v, want ErrNoConsensus", err)
	}
}

func TestPluralityAllFailed(t *testing.T) {
	adj := Plurality(core.EqualOf[int]())
	_, err := adj.Adjudicate([]core.Result[int]{failed("a"), failed("b")})
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("err = %v, want ErrAllVariantsFailed", err)
	}
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v, want ErrNoVariants", err)
	}
}

func TestUnanimity(t *testing.T) {
	adj := Unanimity(core.EqualOf[int]())
	got, err := adj.Adjudicate([]core.Result[int]{ok("a", 3), ok("b", 3)})
	if err != nil || got != 3 {
		t.Errorf("= (%d, %v), want (3, nil)", got, err)
	}
	_, err = adj.Adjudicate([]core.Result[int]{ok("a", 3), ok("b", 4)})
	if !errors.Is(err, core.ErrDivergence) {
		t.Errorf("divergent values: err = %v, want ErrDivergence", err)
	}
	_, err = adj.Adjudicate([]core.Result[int]{ok("a", 3), failed("b")})
	if !errors.Is(err, core.ErrDivergence) {
		t.Errorf("one failure: err = %v, want ErrDivergence", err)
	}
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v, want ErrNoVariants", err)
	}
}

func TestMOfN(t *testing.T) {
	adj := MOfN(2, core.EqualOf[int]())
	got, err := adj.Adjudicate([]core.Result[int]{ok("a", 5), ok("b", 5), ok("c", 9)})
	if err != nil || got != 5 {
		t.Errorf("= (%d, %v), want (5, nil)", got, err)
	}
	_, err = adj.Adjudicate([]core.Result[int]{ok("a", 5), ok("b", 6), ok("c", 9)})
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("no quorum: err = %v", err)
	}
}

func TestMOfNPicksLargestQualifyingClass(t *testing.T) {
	adj := MOfN(2, core.EqualOf[int]())
	got, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 5), ok("b", 5), ok("c", 9), ok("d", 9), ok("e", 9),
	})
	if err != nil || got != 9 {
		t.Errorf("= (%d, %v), want (9, nil)", got, err)
	}
}

func TestMOfNInvalidQuorum(t *testing.T) {
	adj := MOfN(0, core.EqualOf[int]())
	if _, err := adj.Adjudicate([]core.Result[int]{ok("a", 1)}); !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("err = %v, want ErrNoConsensus", err)
	}
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v", err)
	}
}

func TestWeighted(t *testing.T) {
	adj := Weighted(map[string]float64{"trusted": 3}, 1, core.EqualOf[int]())
	// trusted (3) vs two defaults (1+1): total 5, trusted value needs > 2.5.
	got, err := adj.Adjudicate([]core.Result[int]{
		ok("trusted", 1), ok("x", 2), ok("y", 2),
	})
	if err != nil || got != 1 {
		t.Errorf("= (%d, %v), want (1, nil)", got, err)
	}
}

func TestWeightedNoMajority(t *testing.T) {
	adj := Weighted(nil, 1, core.EqualOf[int]())
	_, err := adj.Adjudicate([]core.Result[int]{ok("a", 1), ok("b", 2)})
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("err = %v, want ErrNoConsensus", err)
	}
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v", err)
	}
}

func TestWeightedFailedVariantWeighsAgainst(t *testing.T) {
	// A failed heavy variant still contributes to the total weight, so a
	// light successful variant may not reach majority.
	adj := Weighted(map[string]float64{"heavy": 5}, 1, core.EqualOf[int]())
	_, err := adj.Adjudicate([]core.Result[int]{
		{Variant: "heavy", Err: errors.New("x")}, ok("light", 2),
	})
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("err = %v, want ErrNoConsensus", err)
	}
}

// A dead tie at the default weight: two classes of two unknown variants
// each hold exactly total/2, and the strict > total/2 rule must refuse
// both rather than pick one arbitrarily — the same reason Majority
// counts against all variants, applied to weighted quorums.
func TestWeightedTieAtDefaultWeight(t *testing.T) {
	adj := Weighted(nil, 1.0, core.EqualOf[int]())
	_, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 7), ok("b", 7), ok("c", 9), ok("d", 9),
	})
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("tied weighted vote err = %v, want ErrNoConsensus", err)
	}
	// Registered weights can break the same tie.
	adj = Weighted(map[string]float64{"a": 2.0}, 1.0, core.EqualOf[int]())
	got, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 7), ok("b", 7), ok("c", 9), ok("d", 9),
	})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v), want weighted winner 7", got, err)
	}
}

// All variants abstained (failed): every link in the chain errs, and the
// caller must see the *last* link's error — for a strict-then-lenient
// cascade that is the lenient adjudicator's diagnosis, the one that
// actually explains why even the fallback refused.
func TestChainedAllAbstain(t *testing.T) {
	adj := Chained(Majority(core.EqualOf[int]()), Plurality(core.EqualOf[int]()))
	_, err := adj.Adjudicate([]core.Result[int]{failed("a"), failed("b"), failed("c")})
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("all-abstain err = %v, want Plurality's ErrAllVariantsFailed", err)
	}
	if errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("all-abstain err = %v leaked the first link's ErrNoConsensus", err)
	}
}

func TestFirstSuccess(t *testing.T) {
	adj := FirstSuccess[int]()
	got, err := adj.Adjudicate([]core.Result[int]{failed("a"), ok("b", 8), ok("c", 9)})
	if err != nil || got != 8 {
		t.Errorf("= (%d, %v), want (8, nil)", got, err)
	}
	_, err = adj.Adjudicate([]core.Result[int]{failed("a")})
	if !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("err = %v", err)
	}
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v", err)
	}
}

func TestMedian(t *testing.T) {
	rs := []core.Result[float64]{
		{Variant: "a", Value: 1.0},
		{Variant: "b", Value: 100.0}, // wildly wrong variant
		{Variant: "c", Value: 1.1},
	}
	got, err := Median(rs)
	if err != nil || got != 1.1 {
		t.Errorf("= (%f, %v), want (1.1, nil)", got, err)
	}
}

func TestMedianEven(t *testing.T) {
	rs := []core.Result[float64]{
		{Variant: "a", Value: 1},
		{Variant: "b", Value: 3},
	}
	got, err := Median(rs)
	if err != nil || got != 2 {
		t.Errorf("= (%f, %v), want (2, nil)", got, err)
	}
}

func TestMedianSkipsFailures(t *testing.T) {
	rs := []core.Result[float64]{
		{Variant: "a", Err: errors.New("x")},
		{Variant: "b", Value: 5},
	}
	got, err := Median(rs)
	if err != nil || got != 5 {
		t.Errorf("= (%f, %v), want (5, nil)", got, err)
	}
	if _, err := Median([]core.Result[float64]{{Variant: "a", Err: errors.New("x")}}); !errors.Is(err, core.ErrAllVariantsFailed) {
		t.Errorf("all failed: err = %v", err)
	}
	if _, err := Median(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v", err)
	}
}

func TestMedianAdjudicator(t *testing.T) {
	adj := MedianAdjudicator()
	got, err := adj.Adjudicate([]core.Result[float64]{{Variant: "a", Value: 4}})
	if err != nil || got != 4 {
		t.Errorf("= (%f, %v)", got, err)
	}
}

// Property: with a strict minority of arbitrarily wrong values, the median
// of n odd results always lies within the range of the correct values.
func TestMedianRobustnessProperty(t *testing.T) {
	f := func(wrongRaw [2]float64) bool {
		results := []core.Result[float64]{
			{Variant: "good1", Value: 10},
			{Variant: "good2", Value: 10.5},
			{Variant: "good3", Value: 11},
			{Variant: "bad1", Value: wrongRaw[0]},
			{Variant: "bad2", Value: wrongRaw[1]},
		}
		m, err := Median(results)
		if err != nil {
			return false
		}
		return m >= 10 && m <= 11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAcceptance(t *testing.T) {
	test := func(input int, output int) error {
		if output != input*2 {
			return core.ErrNotAccepted
		}
		return nil
	}
	adj := Acceptance(21, core.AcceptanceTest[int, int](test))
	got, err := adj.Adjudicate([]core.Result[int]{ok("wrong", 5), ok("right", 42)})
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
}

func TestAcceptanceNothingAcceptable(t *testing.T) {
	test := func(_ int, _ int) error { return core.ErrNotAccepted }
	adj := Acceptance(0, core.AcceptanceTest[int, int](test))
	_, err := adj.Adjudicate([]core.Result[int]{ok("a", 1)})
	if !errors.Is(err, core.ErrNotAccepted) {
		t.Errorf("err = %v, want wrapping ErrNotAccepted", err)
	}
	if _, err := adj.Adjudicate(nil); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("empty: err = %v", err)
	}
}

func TestAcceptanceSkipsFailedResults(t *testing.T) {
	test := func(_ int, _ int) error { return nil }
	adj := Acceptance(0, core.AcceptanceTest[int, int](test))
	got, err := adj.Adjudicate([]core.Result[int]{failed("a"), ok("b", 7)})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v), want (7, nil)", got, err)
	}
}

// Property: majority never selects a value held by fewer than half of the
// results, whatever the vote distribution.
func TestMajoritySafetyProperty(t *testing.T) {
	f := func(votes []uint8) bool {
		if len(votes) == 0 || len(votes) > 30 {
			return true
		}
		results := make([]core.Result[int], len(votes))
		counts := map[int]int{}
		for i, v := range votes {
			val := int(v % 4)
			results[i] = ok("v", val)
			counts[val]++
		}
		adj := Majority(core.EqualOf[int]())
		got, err := adj.Adjudicate(results)
		if err != nil {
			return true // no quorum is always safe
		}
		return counts[got] >= len(votes)/2+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	eq := ApproxEqual(0.01)
	if !eq(1.0, 1.005) || !eq(1.005, 1.0) {
		t.Error("within tolerance should be equal")
	}
	if eq(1.0, 1.02) {
		t.Error("outside tolerance should differ")
	}
	adj := Majority(ApproxEqual(0.01))
	got, err := adj.Adjudicate([]core.Result[float64]{
		{Variant: "a", Value: 1.000},
		{Variant: "b", Value: 1.004},
		{Variant: "c", Value: 9.9},
	})
	if err != nil || got != 1.000 {
		t.Errorf("approx vote = (%f, %v)", got, err)
	}
}

func TestChained(t *testing.T) {
	adj := Chained(Majority(core.EqualOf[int]()), Plurality(core.EqualOf[int]()))
	// No strict majority (2 of 5), but a clear plurality.
	got, err := adj.Adjudicate([]core.Result[int]{
		ok("a", 7), ok("b", 7), ok("c", 1), ok("d", 2), ok("e", 3),
	})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v), want plurality fallback 7", got, err)
	}
	// Strict majority satisfied by the first link.
	got, err = adj.Adjudicate([]core.Result[int]{ok("a", 7), ok("b", 7), ok("c", 1)})
	if err != nil || got != 7 {
		t.Errorf("= (%d, %v)", got, err)
	}
	// All links fail.
	if _, err := adj.Adjudicate([]core.Result[int]{ok("a", 1), ok("b", 2)}); !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("err = %v", err)
	}
	// Empty chain.
	empty := Chained[int]()
	if _, err := empty.Adjudicate([]core.Result[int]{ok("a", 1)}); !errors.Is(err, core.ErrNoConsensus) {
		t.Errorf("empty chain err = %v", err)
	}
}

// blob is a bulk result: a sequence number and a payload, equal when
// both are.
type blob struct {
	Seq  uint64
	Data []byte
}

func blobEq(a, b blob) bool { return a.Seq == b.Seq && bytes.Equal(a.Data, b.Data) }

// TestMajorityAllocatesNothing: an adjudication that reaches a verdict
// over up to four results tallies them on the stack, for a word-sized
// result and for one that holds a slice. Every result set has a unique
// largest class of at least two, and a failed or dissenting member.
func TestMajorityAllocatesNothing(t *testing.T) {
	ints := [][]core.Result[int]{
		{ok("a", 1), ok("b", 1)},
		{ok("a", 1), ok("b", 2), ok("c", 1)},
		{failed("a"), ok("b", 1), ok("c", 1)},
		{ok("a", 2), ok("b", 1), ok("c", 1), ok("d", 1)},
		{ok("a", 1), ok("b", 2), ok("c", 3), ok("d", 1)}, // a plurality, not a majority
	}
	data := []byte("payload")
	blobs := make([][]core.Result[blob], len(ints))
	for i, rs := range ints {
		for _, r := range rs {
			blobs[i] = append(blobs[i], core.Result[blob]{Variant: r.Variant, Value: blob{uint64(r.Value), data}, Err: r.Err})
		}
	}
	blobs[1][1].Value.Data = []byte("forged!")
	eq := core.EqualOf[int]()
	checkNoAllocs(t, "Majority", Majority(eq), ints[:4])
	checkNoAllocs(t, "Plurality", Plurality(eq), ints)
	checkNoAllocs(t, "MOfN", MOfN(2, eq), ints)
	checkNoAllocs(t, "Majority", Majority(blobEq), blobs[:4])
	checkNoAllocs(t, "Plurality", Plurality(blobEq), blobs)
	checkNoAllocs(t, "MOfN", MOfN(2, blobEq), blobs)
}

func checkNoAllocs[O any](t *testing.T, name string, adj core.Adjudicator[O], sets [][]core.Result[O]) {
	t.Helper()
	for _, rs := range sets {
		if _, err := adj.Adjudicate(rs); err != nil {
			t.Fatalf("%s[%T] over %d results: %v", name, rs[0].Value, len(rs), err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = adj.Adjudicate(rs) }); n != 0 {
			t.Errorf("%s[%T] over %d results: %v allocs, want 0", name, rs[0].Value, len(rs), n)
		}
	}
}
