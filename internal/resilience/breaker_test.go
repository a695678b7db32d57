package resilience

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// fakeClock is an injectable clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

var errFail = errors.New("boom")

// record drives one Allow/Record round trip, failing the test if the
// breaker rejected the call.
func record(t *testing.T, b *Breaker, err error) {
	t.Helper()
	tok, aerr := b.Allow()
	if aerr != nil {
		t.Fatalf("Allow rejected: %v", aerr)
	}
	b.Record(tok, err)
}

func TestBreakerConsecutiveFailuresTrip(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{ConsecutiveFailures: 3, Now: clk.Now})
	record(t, b, errFail)
	record(t, b, errFail)
	if got := b.State(); got != obs.BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	record(t, b, errFail)
	if got := b.State(); got != obs.BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow on open breaker = %v, want ErrBreakerOpen", err)
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{ConsecutiveFailures: 3, Now: clk.Now})
	for i := 0; i < 10; i++ {
		record(t, b, errFail)
		record(t, b, errFail)
		record(t, b, nil) // breaks the streak
	}
	if got := b.State(); got != obs.BreakerClosed {
		t.Fatalf("state = %v, want closed (streak never reached 3)", got)
	}
}

func TestBreakerFailureRateTrip(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{
		ConsecutiveFailures: 100, // out of reach; the rate must trip
		FailureRate:         0.5,
		Window:              8,
		MinSamples:          4,
		Now:                 clk.Now,
	})
	record(t, b, errFail)
	record(t, b, nil)
	record(t, b, errFail)
	if got := b.State(); got != obs.BreakerClosed {
		t.Fatalf("tripped before MinSamples: %v", got)
	}
	record(t, b, errFail) // 4 samples, 3 failures: rate 0.75 >= 0.5
	if got := b.State(); got != obs.BreakerOpen {
		t.Fatalf("state = %v, want open on failure rate", got)
	}
}

func TestBreakerOpenHalfOpenProbeCycle(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             time.Second,
		Now:                 clk.Now,
	})
	record(t, b, errFail)
	if got := b.State(); got != obs.BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow before OpenFor elapsed = %v, want ErrBreakerOpen", err)
	}

	clk.Advance(time.Second)
	tok, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow after OpenFor: %v", err)
	}
	if !tok.Probe() {
		t.Fatal("post-OpenFor admission is not a probe")
	}
	if got := b.State(); got != obs.BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// Exactly one probe at a time: a second Allow is rejected while the
	// first probe is in flight.
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	b.Record(tok, nil)
	if got := b.State(); got != obs.BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second, Now: clk.Now})
	record(t, b, errFail)
	clk.Advance(time.Second)
	tok, err := b.Allow()
	if err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	b.Record(tok, errFail)
	if got := b.State(); got != obs.BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", b.Opens())
	}
	// The re-open restarts the OpenFor clock.
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow right after re-open = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerHalfOpenSuccessesThreshold(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{
		ConsecutiveFailures: 1,
		OpenFor:             time.Second,
		HalfOpenSuccesses:   2,
		Now:                 clk.Now,
	})
	record(t, b, errFail)
	clk.Advance(time.Second)
	for i := 0; i < 2; i++ {
		tok, err := b.Allow()
		if err != nil {
			t.Fatalf("probe %d not admitted: %v", i+1, err)
		}
		b.Record(tok, nil)
	}
	if got := b.State(); got != obs.BreakerClosed {
		t.Fatalf("state after 2 successful probes = %v, want closed", got)
	}
}

func TestBreakerStaleTokenDropped(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second, Now: clk.Now})
	stale, err := b.Allow() // closed-generation token
	if err != nil {
		t.Fatalf("Allow: %v", err)
	}
	record(t, b, errFail) // trips: generation bumps
	b.Record(stale, nil)  // stale success must not close the breaker
	if got := b.State(); got != obs.BreakerOpen {
		t.Fatalf("stale token changed state to %v, want open", got)
	}
	// And a stale zero token is inert.
	b.Record(Token{}, errFail)
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", b.Opens())
	}
}

// TestClosedBreakerReadsNoClock: only a transition needs the time, so a
// closed breaker admitting and recording calls, failures below the trip
// included, never reads its clock. The trip that follows does.
func TestClosedBreakerReadsNoClock(t *testing.T) {
	var reads atomic.Int64
	clk := newFakeClock()
	b := NewBreaker("v", BreakerConfig{
		ConsecutiveFailures: 3,
		Now: func() time.Time {
			reads.Add(1)
			return clk.Now()
		},
	})
	for i := 0; i < 1000; i++ {
		var err error
		if i%2 == 0 {
			err = errFail
		}
		record(t, b, err)
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("closed breaker read its clock %d times over 1000 Allow/Record pairs, want 0", n)
	}
	for i := 0; i < 3; i++ {
		record(t, b, errFail)
	}
	if b.State() != obs.BreakerOpen || reads.Load() == 0 {
		t.Fatalf("after the trip: state %v, %d clock reads; want open and at least one read", b.State(), reads.Load())
	}
}

func TestBreakerHealthFeedTrips(t *testing.T) {
	clk := newFakeClock()
	health := 1.0
	var transitions []obs.BreakerState
	b := NewBreaker("v", BreakerConfig{
		Health:      func(string) float64 { return health },
		HealthBelow: 0.5,
		Now:         clk.Now,
		OnStateChange: func(_ string, _, to obs.BreakerState) {
			transitions = append(transitions, to)
		},
	})
	record(t, b, nil)
	health = 0.1
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow with degraded health = %v, want ErrBreakerOpen", err)
	}
	if got := b.State(); got != obs.BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if len(transitions) != 1 || transitions[0] != obs.BreakerOpen {
		t.Fatalf("transitions = %v, want [open]", transitions)
	}
}

func TestBreakersSetLazyCreationAndState(t *testing.T) {
	bs := NewBreakers(BreakerConfig{ConsecutiveFailures: 1})
	if got := bs.State("never-seen"); got != obs.BreakerClosed {
		t.Fatalf("unknown variant state = %v, want closed", got)
	}
	b := bs.For("v1")
	if b != bs.For("v1") {
		t.Fatal("For returned a different breaker for the same variant")
	}
	record(t, b, errFail)
	if got := bs.State("v1"); got != obs.BreakerOpen {
		t.Fatalf("set state = %v, want open", got)
	}
	record(t, bs.For("v2"), errFail)
	if got := bs.Opens(); got != 2 {
		t.Fatalf("set Opens = %d, want 2", got)
	}
}

// TestBreakerConcurrentSingleProbe hammers one breaker from 64
// goroutines and checks the two safety properties the generation-counted
// tokens exist for: at most one half-open probe is ever in flight at a
// time, and no state transition is lost or invented — every observed
// transition walks a legal edge of the state machine and the edge counts
// balance against the final state. Run with -race.
func TestBreakerConcurrentSingleProbe(t *testing.T) {
	var (
		mu          sync.Mutex
		transitions []transition
	)
	b := NewBreaker("v", BreakerConfig{
		ConsecutiveFailures: 3,
		OpenFor:             50 * time.Microsecond,
		OnStateChange: func(_ string, from, to obs.BreakerState) {
			mu.Lock()
			transitions = append(transitions, transition{from: from, to: to})
			mu.Unlock()
		},
	})

	const (
		goroutines = 64
		iterations = 300
	)
	var (
		probesInFlight atomic.Int64
		maxProbes      atomic.Int64
		wg             sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				tok, err := b.Allow()
				if err != nil {
					runtime.Gosched()
					continue
				}
				if tok.probe {
					n := probesInFlight.Add(1)
					for {
						max := maxProbes.Load()
						if n <= max || maxProbes.CompareAndSwap(max, n) {
							break
						}
					}
					runtime.Gosched() // widen the race window
					probesInFlight.Add(-1)
				}
				// Mixed outcomes keep the breaker cycling through all
				// three states for the whole test.
				if (g+i)%3 == 0 {
					b.Record(tok, errFail)
				} else {
					b.Record(tok, nil)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := maxProbes.Load(); got > 1 {
		t.Errorf("observed %d concurrent half-open probes, want at most 1", got)
	}

	// Order-independent conservation check (OnStateChange fires outside
	// the breaker lock, so the slice order is not guaranteed): every
	// transition must be a legal edge, and for each state the in-degree
	// minus out-degree must equal final occupancy minus initial
	// occupancy.
	mu.Lock()
	defer mu.Unlock()
	legal := map[transition]bool{
		{from: obs.BreakerClosed, to: obs.BreakerOpen}:     true,
		{from: obs.BreakerOpen, to: obs.BreakerHalfOpen}:   true,
		{from: obs.BreakerHalfOpen, to: obs.BreakerOpen}:   true,
		{from: obs.BreakerHalfOpen, to: obs.BreakerClosed}: true,
	}
	in := map[obs.BreakerState]int{}
	out := map[obs.BreakerState]int{}
	opens := 0
	for _, tr := range transitions {
		if !legal[tr] {
			t.Fatalf("illegal transition %v -> %v", tr.from, tr.to)
		}
		in[tr.to]++
		out[tr.from]++
		if tr.to == obs.BreakerOpen {
			opens++
		}
	}
	if got := b.Opens(); uint64(opens) != got {
		t.Errorf("observed %d open transitions, breaker counted %d", opens, got)
	}
	final := b.State()
	for _, s := range []obs.BreakerState{obs.BreakerClosed, obs.BreakerOpen, obs.BreakerHalfOpen} {
		want := 0
		if s == final {
			want++
		}
		if s == obs.BreakerClosed { // initial state
			want--
		}
		if got := in[s] - out[s]; got != want {
			t.Errorf("state %v: in-out = %d, want %d (final %v, %d transitions)",
				s, got, want, final, len(transitions))
		}
	}
}
