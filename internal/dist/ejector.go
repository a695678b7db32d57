package dist

// Ejector is the gray-failure defense: per-endpoint latency EWMAs fed
// from the attempt latencies the Remote client already measures,
// peer-relative outlier ejection, power-of-two-choices latency-aware
// routing, and probation with trickle probes and slow-start
// reinstatement.
//
// The problem it solves is invisible to every other defense in the
// repo: a fail-slow ("gray") replica answers heartbeats on time, so
// the failure detector's miss track never fires; it answers
// *correctly*, so quorum voting files no accusations; its breaker
// sees no errors. Only the latency profile of real requests carries
// the signal. The ejector turns that profile into membership
// decisions the rest of the stack understands — it files reversible
// slowness evidence with the Detector, so ranking, the stats table,
// and the control plane's GrayFailurePolicy all see the same verdict.
//
// Ejection is peer-relative (an endpoint is an outlier against the
// fleet median, not an absolute threshold), reversible (ejected
// endpoints get trickle probes and are reinstated after sustained
// recovery), and capped (the non-ejected set never shrinks below
// MinKeep — a defense must not turn one slow replica into an outage).

import (
	"sort"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// EjectorConfig parameterizes latency-outlier ejection. The zero value
// selects the documented defaults.
type EjectorConfig struct {
	// Name labels the ejector in observation events; empty means
	// "ejector".
	Name string
	// Alpha is the EWMA smoothing factor in (0, 1]: higher weighs the
	// newest sample more. Default 0.3.
	Alpha float64
	// Threshold is the peer-relative ejection multiplier k: an endpoint
	// is ejected when its EWMA exceeds k× the median EWMA of the
	// non-ejected fleet. Default 3.
	Threshold float64
	// ReinstateBelow is the recovery multiplier: a probe counts as good
	// when its latency is at or below ReinstateBelow× the fleet median.
	// Kept well under Threshold so ejection and reinstatement have a
	// hysteresis band between them. Default Threshold/2.
	ReinstateBelow float64
	// MinSamples is how many samples an endpoint needs before it can be
	// ejected — one slow response is an anecdote, not an outlier.
	// Default 5.
	MinSamples int
	// MinKeep is the ejection floor: an ejection that would leave fewer
	// than MinKeep endpoints in rotation is skipped, however slow the
	// outlier. Default 1.
	MinKeep int
	// ProbeEvery is the probation trickle rate: roughly one of every
	// ProbeEvery routing decisions that would have skipped an ejected
	// endpoint routes to it instead, as a probe. Hedging bounds the
	// probe's cost if the endpoint is still slow. Default 32.
	ProbeEvery int
	// ReinstateAfter is how many consecutive good probes restore an
	// ejected endpoint to rotation. Default 3.
	ReinstateAfter int
	// ExploreEvery is the P2C exploration rate: one of every
	// ExploreEvery picks routes to the sampled pair's *worse*-looking
	// endpoint. Without it a slow-looking (but not yet ejected)
	// endpoint loses every comparison, stops receiving traffic, and so
	// never accumulates the samples ejection — or exoneration — needs.
	// Default 16.
	ExploreEvery int
	// Seed drives the power-of-two-choices sampling; campaigns share
	// theirs so routing replays deterministically.
	Seed uint64
	// Detector, if non-nil, receives the ejector's verdicts as slowness
	// evidence: ReportSlow on ejection and on every failed probe,
	// ClearSlow on reinstatement. This is what routes persistent
	// limping into the control plane.
	Detector *Detector
	// Observer receives ReplicaEjected/ProbeLaunched/ReplicaReinstated
	// events under Name; nil observes nothing.
	Observer obs.Observer
}

func (c EjectorConfig) withDefaults() EjectorConfig {
	if c.Name == "" {
		c.Name = "ejector"
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Threshold <= 1 {
		c.Threshold = 3
	}
	if c.ReinstateBelow <= 0 {
		c.ReinstateBelow = c.Threshold / 2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.MinKeep <= 0 {
		c.MinKeep = 1
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 32
	}
	if c.ReinstateAfter <= 0 {
		c.ReinstateAfter = 3
	}
	if c.ExploreEvery <= 0 {
		c.ExploreEvery = 16
	}
	return c
}

// epLatency is the ejector's state for one endpoint.
type epLatency struct {
	ewma       float64 // smoothed attempt latency, nanoseconds
	samples    int
	ejected    bool
	over       int // consecutive samples above the ejection bar
	ejections  int // lifetime ejection count (ground-truth scoring)
	goodProbes int // consecutive fast probes this probation
	probeTick  int // routing decisions skipped while ejected
}

// EndpointLatency is a point-in-time copy of one endpoint's ejector
// state — the per-endpoint latency snapshot reports print.
type EndpointLatency struct {
	Endpoint   string        `json:"endpoint"`
	EWMA       time.Duration `json:"ewma"`
	Samples    int           `json:"samples"`
	Ejected    bool          `json:"ejected,omitempty"`
	Ejections  int           `json:"ejections,omitempty"`
	GoodProbes int           `json:"good_probes,omitempty"`
}

// Ejector tracks per-endpoint latency EWMAs and decides which
// endpoints are latency outliers. Attach one to a Remote via
// RemoteConfig.Ejector; the client feeds it every attempt outcome and
// consults it on every routing decision. Safe for concurrent use.
type Ejector struct {
	cfg EjectorConfig

	mu          sync.Mutex
	eps         map[string]*epLatency
	rng         *xrand.Rand
	exploreTick int

	ejections      int
	reinstatements int
}

// NewEjector returns an ejector with no observations yet.
func NewEjector(cfg EjectorConfig) *Ejector {
	cfg = cfg.withDefaults()
	return &Ejector{cfg: cfg, eps: make(map[string]*epLatency), rng: xrand.New(cfg.Seed)}
}

// ep resolves (creating on first use) an endpoint's state. Caller
// holds mu.
func (e *Ejector) ep(name string) *epLatency {
	p, ok := e.eps[name]
	if !ok {
		p = &epLatency{}
		e.eps[name] = p
	}
	return p
}

// medianLocked returns the median EWMA over the non-ejected fleet, or
// 0 when nothing has been observed. Caller holds mu.
func (e *Ejector) medianLocked() float64 {
	vals := make([]float64, 0, len(e.eps))
	for _, p := range e.eps {
		if !p.ejected && p.samples > 0 {
			vals = append(vals, p.ewma)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 0 {
		return (vals[mid-1] + vals[mid]) / 2
	}
	return vals[mid]
}

// update folds one latency sample into an endpoint's EWMA. Caller
// holds mu.
func (e *Ejector) update(p *epLatency, x float64) {
	if p.samples == 0 {
		p.ewma = x
	} else {
		p.ewma = e.cfg.Alpha*x + (1-e.cfg.Alpha)*p.ewma
	}
	p.samples++
}

// Observe feeds one completed attempt's measured latency. For an
// endpoint in rotation this is the ejection evidence stream; for an
// ejected endpoint it is a probe outcome — fast enough counts toward
// reinstatement, slow resets probation and files slowness evidence.
func (e *Ejector) Observe(endpoint string, latency time.Duration) {
	e.mu.Lock()
	p := e.ep(endpoint)
	e.update(p, float64(latency))
	if p.ejected {
		med := e.medianLocked()
		if med > 0 && float64(latency) <= e.cfg.ReinstateBelow*med {
			p.goodProbes++
			if p.goodProbes >= e.cfg.ReinstateAfter {
				probes := p.goodProbes
				p.ejected = false
				p.goodProbes = 0
				// Slow-start re-entry: the stale limping EWMA would
				// either shadow the endpoint from P2C for ages or
				// re-trigger ejection on the next median shift;
				// restart it at the fleet median and let fresh
				// samples earn back (or lose) full weight.
				p.ewma = med
				e.reinstatements++
				e.mu.Unlock()
				if e.cfg.Detector != nil {
					e.cfg.Detector.ClearSlow(endpoint)
				}
				obs.Emit(e.cfg.Observer, obs.ReplicaReinstated(e.cfg.Name, endpoint, probes))
				return
			}
			e.mu.Unlock()
			return
		}
		p.goodProbes = 0
		e.mu.Unlock()
		if e.cfg.Detector != nil {
			e.cfg.Detector.ReportSlow(endpoint)
		}
		return
	}
	e.maybeEject(endpoint, p, float64(latency), false)
}

// ObserveCensored feeds an abandoned attempt: the request was settled
// by another endpoint while this one was still in flight after elapsed
// time. The true latency is unknown but at least elapsed, so the sample
// only ever pushes the EWMA up — without it a limper that loses every
// hedge race would never accumulate evidence, because its attempts
// never complete. overtaken reports that the winner was launched after
// this attempt: a hedge fired because this one was slow, and finished
// first. That counts toward the ejection streak whatever elapsed reads
// against the fleet median, which it cannot exceed by much: the hedge
// delay plus the winner's round trip bounds it. An attempt that lost to
// an earlier one says nothing about its endpoint beyond the EWMA. For an
// ejected endpoint a censored probe is proof it is still slow.
func (e *Ejector) ObserveCensored(endpoint string, elapsed time.Duration, overtaken bool) {
	e.mu.Lock()
	p := e.ep(endpoint)
	// Below the EWMA a censored sample cannot push it up, so it only
	// updates when it is above.
	if p.samples == 0 || float64(elapsed) > p.ewma {
		e.update(p, float64(elapsed))
	}
	if p.ejected {
		// A probe is routed first, so it is only abandoned when a hedge
		// beat it: still slow, however it compares with the EWMA its
		// earlier probes raised.
		p.goodProbes = 0
		e.mu.Unlock()
		if e.cfg.Detector != nil {
			e.cfg.Detector.ReportSlow(endpoint)
		}
		return
	}
	if !overtaken {
		e.mu.Unlock()
		return
	}
	e.maybeEject(endpoint, p, float64(elapsed), true)
}

// ejectStreak is how many consecutive samples must each exceed the
// ejection bar before an endpoint is ejected. The EWMA alone is not
// enough: one scheduler stall many times the fleet median can lift it
// over the bar for an update or two, and a single outlier sample is an
// anecdote, not a gray failure. A limper produces a streak; a stall
// does not.
const ejectStreak = 3

// maybeEject applies the ejection rule to one endpoint after its
// sample x: the EWMA and the last ejectStreak samples must all exceed
// Threshold× the fleet median, where an overtaken attempt's sample
// counts as over whatever it reads. Caller holds mu; the lock is
// released before detector/observer callbacks.
func (e *Ejector) maybeEject(endpoint string, p *epLatency, x float64, overtaken bool) {
	med := e.medianLocked()
	bar := e.cfg.Threshold * med
	if med > 0 && (overtaken || x > bar) {
		p.over++
	} else {
		p.over = 0
	}
	if p.samples < e.cfg.MinSamples || p.over < ejectStreak || med <= 0 || p.ewma <= bar {
		e.mu.Unlock()
		return
	}
	// The floor: ejection may never leave the rotation thinner than
	// MinKeep, no matter how slow the outlier is.
	inRotation := 0
	for _, q := range e.eps {
		if !q.ejected {
			inRotation++
		}
	}
	if inRotation-1 < e.cfg.MinKeep {
		e.mu.Unlock()
		return
	}
	p.ejected = true
	p.over = 0
	p.ejections++
	p.goodProbes = 0
	p.probeTick = 0
	e.ejections++
	ewma := time.Duration(p.ewma)
	e.mu.Unlock()
	if e.cfg.Detector != nil {
		e.cfg.Detector.ReportSlow(endpoint)
	}
	obs.Emit(e.cfg.Observer, obs.ReplicaEjected(e.cfg.Name, endpoint, ewma, time.Duration(med)))
}

// ejectPenalty pushes ejected endpoints' routing class below every
// detector state (alive=0, suspect=1, dead=2), so they are only dialed
// when everything healthier has failed.
const ejectPenalty = 16

// route applies ejection to one routing decision: class[i] (the
// detector-derived rank the client sorts by) is penalized for ejected
// endpoints, except that roughly one in ProbeEvery decisions grants
// one ejected endpoint a trickle probe instead — the caller promotes
// that endpoint to primary so its recovery can be observed. Returns
// the probe's index, or -1.
func (e *Ejector) route(n int, name func(int) string, class []int) int {
	probe := -1
	e.mu.Lock()
	for i := 0; i < n; i++ {
		p, ok := e.eps[name(i)]
		if !ok || !p.ejected {
			continue
		}
		if probe < 0 {
			p.probeTick++
			if p.probeTick%e.cfg.ProbeEvery == 0 {
				probe = i
				continue
			}
		}
		class[i] += ejectPenalty
	}
	e.mu.Unlock()
	if probe >= 0 {
		obs.Emit(e.cfg.Observer, obs.ProbeLaunched(e.cfg.Name, name(probe)))
	}
	return probe
}

// p2cFront applies power of two choices to a class-sorted order: two
// members of the leading equal-class run are sampled from the seeded
// stream and the one with the lower latency EWMA becomes the primary.
// Sampling two — rather than ranking everyone — is the classic
// load-balancing trick: it avoids the herd behavior of always picking
// the single best-looking endpoint while still preferring fast ones,
// and it costs O(1) per request. An unobserved endpoint counts as
// fast, so new endpoints get explored; every ExploreEvery-th pick the
// comparison inverts, so a slow-looking endpoint still gets a trickle
// of traffic — the evidence stream ejection (or exoneration) rides on.
func (e *Ejector) p2cFront(order []int, class []int, name func(int) string) {
	run := 1
	for run < len(order) && class[order[run]] == class[order[0]] {
		run++
	}
	if run < 2 {
		return
	}
	e.mu.Lock()
	i := e.rng.Intn(run)
	j := e.rng.Intn(run - 1)
	if j >= i {
		j++
	}
	var ei, ej float64
	if p, ok := e.eps[name(order[i])]; ok {
		ei = p.ewma
	}
	if p, ok := e.eps[name(order[j])]; ok {
		ej = p.ewma
	}
	e.exploreTick++
	explore := e.exploreTick%e.cfg.ExploreEvery == 0
	e.mu.Unlock()
	win := i
	if explore {
		if ej > ei {
			win = j
		}
	} else if ej < ei {
		win = j
	}
	if win != 0 {
		order[0], order[win] = order[win], order[0]
	}
}

// Ejected reports whether an endpoint is currently out of rotation.
func (e *Ejector) Ejected(endpoint string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.eps[endpoint]
	return ok && p.ejected
}

// Ejections returns how many ejections have happened in total.
func (e *Ejector) Ejections() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ejections
}

// Reinstatements returns how many probations ended in reinstatement.
func (e *Ejector) Reinstatements() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reinstatements
}

// Snapshot returns a copy of every endpoint's latency state, sorted by
// endpoint name.
func (e *Ejector) Snapshot() []EndpointLatency {
	e.mu.Lock()
	out := make([]EndpointLatency, 0, len(e.eps))
	for name, p := range e.eps {
		out = append(out, EndpointLatency{
			Endpoint:   name,
			EWMA:       time.Duration(p.ewma),
			Samples:    p.samples,
			Ejected:    p.ejected,
			Ejections:  p.ejections,
			GoodProbes: p.goodProbes,
		})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}
