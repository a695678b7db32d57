package resilience

import (
	"fmt"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// BreakerConfig parameterizes a circuit breaker. The zero value selects
// the documented defaults.
type BreakerConfig struct {
	// ConsecutiveFailures trips the breaker after this many failures in
	// a row. Default 5.
	ConsecutiveFailures int
	// FailureRate trips the breaker when the failure fraction over the
	// sliding Window reaches this value, once MinSamples outcomes have
	// been seen. Zero disables rate-based tripping.
	FailureRate float64
	// Window is the sliding-window size for rate-based tripping.
	// Default 32.
	Window int
	// MinSamples is the minimum number of outcomes in the window before
	// FailureRate applies. Default 10.
	MinSamples int
	// OpenFor is how long the breaker stays open before admitting a
	// half-open probe. Default 1s.
	OpenFor time.Duration
	// HalfOpenSuccesses is how many consecutive successful probes close
	// the breaker again. Default 1.
	HalfOpenSuccesses int
	// Health, if non-nil, feeds an external health score (e.g. the
	// PR-2 health engine's VariantScore) into the breaker: a closed
	// breaker trips when the score drops below HealthBelow.
	Health func(variant string) float64
	// HealthBelow is the health-score trip threshold; zero disables the
	// health feed.
	HealthBelow float64
	// Now is the clock; defaults to time.Now. Injectable for
	// deterministic tests.
	Now func() time.Time
	// OnStateChange, if non-nil, is called after every state
	// transition (outside the breaker's lock).
	OnStateChange func(variant string, from, to obs.BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Token correlates one admitted call with the breaker state that
// admitted it. Record drops outcomes whose token is stale (admitted
// before a state transition), which is what keeps the half-open
// single-probe accounting exact under concurrency.
type Token struct {
	gen   uint64
	probe bool
	ok    bool
}

// Probe reports whether the token admitted the half-open breaker's
// single probe, whose outcome must be recorded to free the probe slot.
func (t Token) Probe() bool { return t.probe }

// transition is a completed state change, reported outside the lock.
type transition struct {
	from, to obs.BreakerState
}

// Breaker is a circuit breaker for one variant: closed → open on
// consecutive failures, failure rate over a sliding window, or a
// degraded external health score; open → half-open after OpenFor;
// half-open admits exactly one probe at a time and closes after
// HalfOpenSuccesses successful probes (re-opening on any failed one).
//
// Usage is Allow/Record bracketing the protected call:
//
//	tok, err := b.Allow()
//	if err != nil { /* rejected fast */ }
//	out, err := call()
//	b.Record(tok, err)
//
// Breaker is safe for concurrent use.
type Breaker struct {
	cfg     BreakerConfig
	variant string
	set     *Breakers // event sink; nil for a standalone breaker

	mu    sync.Mutex
	state obs.BreakerState
	gen   uint64

	consecFails int
	window      []bool // true = failure; ring
	windowIdx   int
	windowLen   int
	windowFails int

	openedAt       time.Time
	probing        bool
	probeSuccesses int

	opens uint64 // transitions into open, for reports
}

// NewBreaker returns a closed breaker for one variant.
func NewBreaker(variant string, cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:     cfg,
		variant: variant,
		window:  make([]bool, cfg.Window),
	}
}

// State returns the current state without side effects: an open breaker
// whose OpenFor elapsed still reports open until the next Allow admits
// the probe.
func (b *Breaker) State() obs.BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Allow asks the breaker to admit a call. It returns a Token to pass to
// Record, or an error wrapping ErrBreakerOpen when the call is rejected
// — fast, without executing anything. In the half-open state exactly
// one probe is admitted at a time.
func (b *Breaker) Allow() (Token, error) {
	b.mu.Lock()
	switch b.state {
	case obs.BreakerClosed:
		if b.cfg.Health != nil && b.cfg.HealthBelow > 0 {
			if b.cfg.Health(b.variant) < b.cfg.HealthBelow {
				tr := b.transitionLocked(obs.BreakerOpen, b.cfg.Now())
				b.mu.Unlock()
				b.emit(tr)
				return Token{}, b.openErr()
			}
		}
		tok := Token{gen: b.gen, ok: true}
		b.mu.Unlock()
		return tok, nil
	case obs.BreakerOpen:
		if now := b.cfg.Now(); now.Sub(b.openedAt) >= b.cfg.OpenFor {
			tr := b.transitionLocked(obs.BreakerHalfOpen, now)
			b.probing = true
			tok := Token{gen: b.gen, probe: true, ok: true}
			b.mu.Unlock()
			b.emit(tr)
			return tok, nil
		}
		b.mu.Unlock()
		return Token{}, b.openErr()
	default: // obs.BreakerHalfOpen
		if b.probing {
			b.mu.Unlock()
			return Token{}, b.openErr()
		}
		b.probing = true
		tok := Token{gen: b.gen, probe: true, ok: true}
		b.mu.Unlock()
		return tok, nil
	}
}

// Record reports the outcome of a call admitted by Allow. Outcomes
// whose token predates the current state (a transition happened while
// the call was in flight) are dropped, so stale results cannot corrupt
// the half-open probe accounting.
func (b *Breaker) Record(tok Token, err error) {
	if !tok.ok {
		return
	}
	success := err == nil
	b.mu.Lock()
	if tok.gen != b.gen {
		b.mu.Unlock()
		return
	}
	var tr transition
	fired := false
	switch b.state {
	case obs.BreakerClosed:
		b.observeLocked(success)
		if !success && b.tripLocked() {
			tr, fired = b.transitionLocked(obs.BreakerOpen, b.cfg.Now()), true
		}
	case obs.BreakerHalfOpen:
		if tok.probe {
			b.probing = false
			if success {
				b.probeSuccesses++
				if b.probeSuccesses >= b.cfg.HalfOpenSuccesses {
					tr, fired = b.transitionLocked(obs.BreakerClosed, b.cfg.Now()), true
				}
			} else {
				tr, fired = b.transitionLocked(obs.BreakerOpen, b.cfg.Now()), true
			}
		}
	}
	b.mu.Unlock()
	if fired {
		b.emit(tr)
	}
}

// observeLocked pushes one outcome into the sliding window and the
// consecutive-failure counter.
func (b *Breaker) observeLocked(success bool) {
	failed := !success
	if b.windowLen < len(b.window) {
		b.windowLen++
	} else if b.window[b.windowIdx] {
		b.windowFails--
	}
	b.window[b.windowIdx] = failed
	b.windowIdx = (b.windowIdx + 1) % len(b.window)
	if failed {
		b.windowFails++
		b.consecFails++
	} else {
		b.consecFails = 0
	}
}

// tripLocked evaluates the closed-state trip conditions.
func (b *Breaker) tripLocked() bool {
	if b.consecFails >= b.cfg.ConsecutiveFailures {
		return true
	}
	if b.cfg.FailureRate > 0 && b.windowLen >= b.cfg.MinSamples {
		if float64(b.windowFails)/float64(b.windowLen) >= b.cfg.FailureRate {
			return true
		}
	}
	return false
}

// transitionLocked moves the state machine and resets the evidence the
// new state starts from. Every transition bumps the generation, which
// invalidates in-flight tokens.
func (b *Breaker) transitionLocked(to obs.BreakerState, now time.Time) transition {
	tr := transition{from: b.state, to: to}
	b.state = to
	b.gen++
	b.probing = false
	switch to {
	case obs.BreakerOpen:
		b.openedAt = now
		b.probeSuccesses = 0
		b.opens++
	case obs.BreakerClosed:
		b.consecFails = 0
		b.windowIdx, b.windowLen, b.windowFails = 0, 0, 0
		b.probeSuccesses = 0
	case obs.BreakerHalfOpen:
		b.probeSuccesses = 0
	}
	return tr
}

// Reset force-closes the breaker and clears its failure memory. The
// control plane calls it after repairing the variant behind the breaker
// — a freshly rejuvenated or replaced replica should not stay dark for
// OpenFor on evidence accumulated against its broken predecessor.
func (b *Breaker) Reset() {
	b.mu.Lock()
	var tr transition
	fired := false
	if b.state != obs.BreakerClosed {
		tr, fired = b.transitionLocked(obs.BreakerClosed, b.cfg.Now()), true
	} else {
		b.consecFails = 0
		b.windowIdx, b.windowLen, b.windowFails = 0, 0, 0
	}
	b.mu.Unlock()
	if fired {
		b.emit(tr)
	}
}
func (b *Breaker) openErr() error {
	return fmt.Errorf("variant %s: %w", b.variant, ErrBreakerOpen)
}

// emit reports a transition to the configured callback and, through the
// owning set, to the observation layer. Called outside the lock.
func (b *Breaker) emit(tr transition) {
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(b.variant, tr.from, tr.to)
	}
	if b.set != nil {
		b.set.emit(b.variant, tr.from, tr.to)
	}
}

// Breakers is a per-variant breaker set sharing one configuration: the
// form the pattern executors consume (pattern.WithBreaker). Breakers
// for new variant names are created lazily on first use.
type Breakers struct {
	cfg BreakerConfig

	mu       sync.Mutex
	m        map[string]*Breaker
	executor string
	observer obs.Observer
}

// NewBreakers returns a breaker set; each variant gets its own breaker
// configured by cfg.
func NewBreakers(cfg BreakerConfig) *Breakers {
	return &Breakers{cfg: cfg, m: make(map[string]*Breaker)}
}

// For returns (creating on first use) the breaker of one variant.
func (bs *Breakers) For(variant string) *Breaker {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.m[variant]
	if !ok {
		b = NewBreaker(variant, bs.cfg)
		b.set = bs
		bs.m[variant] = b
	}
	return b
}

// Reset force-closes one variant's breaker and clears its failure
// memory — see Breaker.Reset. A variant the set has never seen is left
// alone (its breaker would start closed anyway).
func (bs *Breakers) Reset(variant string) {
	bs.mu.Lock()
	b := bs.m[variant]
	bs.mu.Unlock()
	if b != nil {
		b.Reset()
	}
}

// State returns the state of one variant's breaker (closed if the
// variant has never been seen).
func (bs *Breakers) State(variant string) obs.BreakerState {
	bs.mu.Lock()
	b, ok := bs.m[variant]
	bs.mu.Unlock()
	if !ok {
		return obs.BreakerClosed
	}
	return b.State()
}

// Opens sums the open transitions across all variants.
func (bs *Breakers) Opens() uint64 {
	bs.mu.Lock()
	breakers := make([]*Breaker, 0, len(bs.m))
	for _, b := range bs.m {
		breakers = append(breakers, b)
	}
	bs.mu.Unlock()
	var n uint64
	for _, b := range breakers {
		n += b.Opens()
	}
	return n
}

// Bind attaches the executor identity and observer used for
// BreakerStateChanged events. The pattern executors call it at
// construction; the first non-empty executor name wins (a set shared by
// several executors reports under the first one bound), and observers
// combine.
func (bs *Breakers) Bind(executor string, o obs.Observer) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.executor == "" {
		bs.executor = executor
	}
	bs.observer = obs.Combine(bs.observer, o)
}

// emit fans a transition out to the bound observer.
func (bs *Breakers) emit(variant string, from, to obs.BreakerState) {
	bs.mu.Lock()
	executor, o := bs.executor, bs.observer
	bs.mu.Unlock()
	if o != nil {
		obs.Emit(o, obs.BreakerStateChanged(executor, variant, from, to))
	}
}
