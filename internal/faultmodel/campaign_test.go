package faultmodel

import (
	"context"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
)

func twoPhaseCampaign() *Campaign {
	return &Campaign{
		Name: "t",
		Seed: 7,
		Phases: []ChaosPhase{
			{Name: "a", Requests: 3, ErrorBurst: 0.5},
			{Name: "b", Requests: 2, Hangs: 0.5},
		},
	}
}

func TestRollIsDeterministic(t *testing.T) {
	c := twoPhaseCampaign()
	for req := uint64(0); req < 50; req++ {
		first := c.roll(0, kindError, req, "v", 0.5, false)
		for i := 0; i < 5; i++ {
			if c.roll(0, kindError, req, "v", 0.5, false) != first {
				t.Fatalf("roll non-deterministic at request %d", req)
			}
		}
	}
	// Edge probabilities are exact.
	if c.roll(0, kindError, 1, "v", 0, false) {
		t.Fatal("probability 0 activated")
	}
	if !c.roll(0, kindError, 1, "v", 1, false) {
		t.Fatal("probability 1 did not activate")
	}
}

func TestRollCorrelatedIgnoresVariant(t *testing.T) {
	c := twoPhaseCampaign()
	sawDifference := false
	for req := uint64(0); req < 200; req++ {
		a := c.roll(0, kindError, req, "variant-a", 0.5, true)
		b := c.roll(0, kindError, req, "variant-b", 0.5, true)
		if a != b {
			t.Fatalf("correlated roll differed across variants at request %d", req)
		}
		if c.roll(0, kindError, req, "variant-a", 0.5, false) !=
			c.roll(0, kindError, req, "variant-b", 0.5, false) {
			sawDifference = true
		}
	}
	if !sawDifference {
		t.Error("independent rolls never differed across variants in 200 requests")
	}
}

func TestRollKindsAreIndependent(t *testing.T) {
	c := twoPhaseCampaign()
	same := 0
	const n = 1000
	for req := uint64(0); req < n; req++ {
		if c.roll(0, kindError, req, "v", 0.5, false) ==
			c.roll(0, kindLatency, req, "v", 0.5, false) {
			same++
		}
	}
	// Identical schedules would agree on every request; independent ones
	// agree about half the time.
	if same > 3*n/4 {
		t.Errorf("error and latency schedules agree on %d/%d requests", same, n)
	}
}

func TestPhaseAtMapsGlobalRequestIndex(t *testing.T) {
	c := twoPhaseCampaign()
	cases := []struct {
		req  uint64
		want int
	}{{0, 0}, {2, 0}, {3, 1}, {4, 1}, {5, -1}, {100, -1}}
	for _, tc := range cases {
		got, phase := c.PhaseAt(tc.req)
		if got != tc.want {
			t.Errorf("PhaseAt(%d) = %d, want %d", tc.req, got, tc.want)
		}
		if (phase == nil) != (tc.want == -1) {
			t.Errorf("PhaseAt(%d) phase nil = %v", tc.req, phase == nil)
		}
	}
	if got := c.Total(); got != 5 {
		t.Errorf("Total = %d, want 5", got)
	}
}

func TestCampaignValidate(t *testing.T) {
	bad := []struct {
		why string
		c   *Campaign
	}{
		{"no phases", &Campaign{}},
		{"phase with no requests", &Campaign{Phases: []ChaosPhase{{Name: "p", Requests: 0}}}},
		{"out-of-range probability", &Campaign{Phases: []ChaosPhase{{Name: "p", Requests: 1, ErrorBurst: 1.5}}}},
		{"request total overflows", &Campaign{Phases: []ChaosPhase{
			{Name: "a", Requests: math.MaxInt/2 + 1}, {Name: "b", Requests: math.MaxInt/2 + 1}}}},
		{"request total over the cap", &Campaign{Phases: []ChaosPhase{
			{Name: "a", Requests: maxRequests}, {Name: "b", Requests: 1}}}},
		{"negative spike delay", &Campaign{Phases: []ChaosPhase{
			{Name: "p", Requests: 1, LatencySpike: 1, SpikeDelay: Duration(-time.Millisecond)}}}},
		{"negative max hang", &Campaign{MaxHang: Duration(-time.Second), Phases: []ChaosPhase{{Name: "p", Requests: 1}}}},
	}
	for _, tc := range bad {
		if err := tc.c.Validate(); err == nil {
			t.Errorf("%s: validated", tc.why)
		}
	}
	if err := twoPhaseCampaign().Validate(); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	atCap := &Campaign{Phases: []ChaosPhase{{Name: "a", Requests: maxRequests - 1}, {Name: "b", Requests: 1}}}
	if err := atCap.Validate(); err != nil {
		t.Errorf("campaign at the request cap rejected: %v", err)
	}
}

// FuzzParseCampaign: the chaos schedule parser never panics, and a
// schedule it accepts re-validates, schedules a positive number of
// requests equal to its phase sum, and holds only probabilities in
// [0,1] and non-negative durations.
func FuzzParseCampaign(f *testing.F) {
	for _, spec := range []string{
		`{"name":"c","seed":1,"max_hang":"2s","phases":[{"name":"a","requests":10,"error_burst":0.5}]}`,
		`{"phases":[{"name":"a","requests":5000000000000000000},{"name":"b","requests":5000000000000000000}]}`,
		`{"phases":[{"name":"a","requests":1,"latency_spike":1,"spike_delay":"-1ms"}]}`,
		`{"phases":[{"name":"a","requests":3,"concurrency":-2,"hangs":1,"correlated":true,"variants":["v1"]}]}`,
		`{"max_hang":-5,"phases":[{"name":"a","requests":1}]}`,
		`{"phases":[]}`, `{}`, `[]`, ``,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCampaign(data)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted schedule fails re-validation: %v", err)
		}
		sum := new(big.Int)
		for _, p := range c.Phases {
			sum.Add(sum, big.NewInt(int64(p.Requests)))
			if p.SpikeDelay < 0 {
				t.Fatalf("phase %q: negative spike_delay %v accepted", p.Name, p.SpikeDelay.D())
			}
			for _, prob := range []float64{p.ErrorBurst, p.LatencySpike, p.Hangs, p.Panics, p.Crashes} {
				if !(prob >= 0 && prob <= 1) {
					t.Fatalf("phase %q: probability %v accepted", p.Name, prob)
				}
			}
		}
		if got := c.Total(); got <= 0 || big.NewInt(int64(got)).Cmp(sum) != 0 {
			t.Fatalf("Total() = %d, phase sum %d", got, sum)
		}
		if c.MaxHang < 0 {
			t.Fatalf("negative max_hang %v accepted", c.MaxHang.D())
		}
	})
}

func TestParseCampaign(t *testing.T) {
	spec := `{
		"name": "spec",
		"seed": 11,
		"max_hang": "250ms",
		"phases": [
			{"name": "burst", "requests": 10, "error_burst": 0.5},
			{"name": "spike", "requests": 5, "latency_spike": 1, "spike_delay": "2ms"}
		]
	}`
	c, err := ParseCampaign([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxHang.D() != 250*time.Millisecond {
		t.Errorf("MaxHang = %v, want 250ms", c.MaxHang.D())
	}
	if c.Phases[1].SpikeDelay.D() != 2*time.Millisecond {
		t.Errorf("SpikeDelay = %v, want 2ms", c.Phases[1].SpikeDelay.D())
	}

	if _, err := ParseCampaign([]byte(`{"phases":[{"name":"p","requests":1,"typo_field":1}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseCampaign([]byte(`{"phases":[{"name":"p","requests":1,"spike_delay":"nonsense"}]}`)); err == nil {
		t.Error("bad duration accepted")
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(1500 * time.Millisecond)
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Duration
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Errorf("round trip %s -> %v", b, back.D())
	}
	var numeric Duration
	if err := numeric.UnmarshalJSON([]byte("1000")); err != nil {
		t.Fatal(err)
	}
	if numeric.D() != 1000 {
		t.Errorf("numeric duration = %v, want 1000ns", numeric.D())
	}
}

func echoVariant(name string) core.Variant[int, int] {
	return core.NewVariant(name, func(_ context.Context, x int) (int, error) {
		return x, nil
	})
}

func TestChaosTransparentOutsideCampaign(t *testing.T) {
	ch := &Chaos[int, int]{Base: echoVariant("v"), Campaign: twoPhaseCampaign()}
	// No request index in the context: the wrapper must be transparent
	// even with an aggressive campaign attached.
	if v, err := ch.Execute(context.Background(), 9); err != nil || v != 9 {
		t.Fatalf("Execute = (%d, %v), want (9, nil)", v, err)
	}
	none := &Chaos[int, int]{Base: echoVariant("v")}
	ctx := WithRequestIndex(context.Background(), 0)
	if v, err := none.Execute(ctx, 9); err != nil || v != 9 {
		t.Fatalf("nil-campaign Execute = (%d, %v), want (9, nil)", v, err)
	}
	if ch.Name() != "v" {
		t.Errorf("Name = %q, want v", ch.Name())
	}
}

func TestChaosErrorBurstAndVariantFilter(t *testing.T) {
	camp := &Campaign{
		Name: "t",
		Phases: []ChaosPhase{
			{Name: "burst", Requests: 10, ErrorBurst: 1, Variants: []string{"hit"}},
		},
	}
	hit := &Chaos[int, int]{Base: echoVariant("hit"), Campaign: camp}
	spared := &Chaos[int, int]{Base: echoVariant("spared"), Campaign: camp}
	for req := uint64(0); req < 10; req++ {
		ctx := WithRequestIndex(context.Background(), req)
		_, err := hit.Execute(ctx, 1)
		var ae *ActivatedError
		if !errors.As(err, &ae) {
			t.Fatalf("request %d: err = %v, want ActivatedError", req, err)
		}
		if ae.Fault != "chaos-burst" {
			t.Fatalf("fault = %q, want chaos-burst", ae.Fault)
		}
		if v, err := spared.Execute(ctx, 1); err != nil || v != 1 {
			t.Fatalf("filtered variant disturbed: (%d, %v)", v, err)
		}
	}
	// Past the end of the schedule the wrapper is transparent again.
	ctx := WithRequestIndex(context.Background(), 99)
	if v, err := hit.Execute(ctx, 1); err != nil || v != 1 {
		t.Fatalf("past-schedule Execute = (%d, %v), want (1, nil)", v, err)
	}
}

func TestChaosHangReleasedByMaxHang(t *testing.T) {
	camp := &Campaign{
		Name:    "t",
		MaxHang: Duration(20 * time.Millisecond),
		Phases:  []ChaosPhase{{Name: "hang", Requests: 5, Hangs: 1}},
	}
	ch := &Chaos[int, int]{Base: echoVariant("v"), Campaign: camp}
	ctx := WithRequestIndex(context.Background(), 0)
	start := time.Now()
	_, err := ch.Execute(ctx, 1)
	if !errors.Is(err, ErrMaxHang) {
		t.Fatalf("Execute = %v, want ErrMaxHang", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang released after %v, want ~MaxHang", elapsed)
	}

	// A context deadline shorter than MaxHang wins.
	camp.MaxHang = Duration(time.Hour)
	tctx, cancel := context.WithTimeout(WithRequestIndex(context.Background(), 0), 20*time.Millisecond)
	defer cancel()
	if _, err := ch.Execute(tctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute = %v, want DeadlineExceeded", err)
	}
}

func TestFailHangMaxHangGuard(t *testing.T) {
	inj := &Injector[int, int]{
		Base:    echoVariant("v"),
		Faults:  []Fault{Bohrbug{ID: 1, TriggerFraction: 1}},
		Mode:    FailHang,
		Key:     func(x int) uint64 { return uint64(x) },
		MaxHang: 20 * time.Millisecond,
	}
	// Regression: before the guard, this call (no context deadline)
	// wedged forever.
	done := make(chan error, 1)
	go func() {
		_, err := inj.Execute(context.Background(), 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMaxHang) {
			t.Fatalf("Execute = %v, want ErrMaxHang", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FailHang with MaxHang set still wedged the goroutine")
	}

	// A context deadline still takes precedence over the guard.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	inj.MaxHang = time.Hour
	if _, err := inj.Execute(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute = %v, want DeadlineExceeded", err)
	}
}

func TestRunCampaignTalliesAndReport(t *testing.T) {
	camp := &Campaign{
		Name: "tally",
		Seed: 3,
		Phases: []ChaosPhase{
			{Name: "calm", Requests: 10},
			{Name: "storm", Requests: 10, ErrorBurst: 1},
		},
	}
	exec := core.ExecutorFunc[int, int](func(ctx context.Context, x int) (int, error) {
		ch := &Chaos[int, int]{Base: echoVariant("v"), Campaign: camp}
		return ch.Execute(ctx, x)
	})
	rep, err := RunCampaign(context.Background(), camp, exec,
		func(req uint64) int { return int(req) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases[0].Succeeded != 10 || rep.Phases[0].Failed != 0 {
		t.Errorf("calm phase = %+v, want 10 successes", rep.Phases[0])
	}
	if rep.Phases[1].Failed != 10 || rep.Phases[1].Succeeded != 0 {
		t.Errorf("storm phase = %+v, want 10 failures", rep.Phases[1])
	}
	totals := rep.Totals()
	if totals.Requests != 20 || totals.Succeeded != 10 || totals.Failed != 10 {
		t.Errorf("totals = %+v", totals)
	}
	out := rep.String()
	for _, want := range []string{"tally", "calm", "storm", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if _, err := RunCampaign(context.Background(), &Campaign{}, exec,
		func(req uint64) int { return int(req) }, nil); err == nil {
		t.Error("RunCampaign accepted an invalid campaign")
	}
}
