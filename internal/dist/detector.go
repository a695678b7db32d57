package dist

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/supervise"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// DetectorConfig parameterizes a failure detector. The zero value
// selects the documented defaults.
type DetectorConfig struct {
	// Name labels the detector in observation events; empty means
	// "detector".
	Name string
	// Interval is the heartbeat period. Default 500ms.
	Interval time.Duration
	// Timeout bounds one heartbeat round trip (dial + ping + pong).
	// Default: Interval.
	Timeout time.Duration
	// SuspectAfter is how many consecutive missed heartbeats mark a
	// replica suspect. Default 2.
	SuspectAfter int
	// DeadAfter is how many consecutive missed heartbeats mark a replica
	// dead. Default 5.
	DeadAfter int
	// AccuseSuspectAfter is how many vote-disagreement accusations
	// (Accuse) mark a replica suspect. Unlike heartbeat misses,
	// accusations never reset: answering the next ping does not undo a
	// wrong answer. Default 3.
	AccuseSuspectAfter int
	// AccuseDeadAfter is how many accusations mark a replica dead.
	// Default: AccuseSuspectAfter + 5.
	AccuseDeadAfter int
	// SlowSuspectAfter is how many pieces of slowness evidence
	// (ReportSlow, filed by the latency ejector) mark a replica suspect.
	// Slowness is the third evidence track: a gray replica answers every
	// ping on time and never lies, so neither misses nor accusations can
	// see it — only the latency profile of real requests can. Unlike
	// accusations the track is reversible (ClearSlow), because slowness
	// is often environmental and a recovered replica should be allowed
	// back. Default 3.
	SlowSuspectAfter int
	// SlowDeadAfter is how many pieces of slowness evidence mark a
	// replica dead. Deliberately far above SlowSuspectAfter: a limping
	// replica still serves correct answers, so demoting it below
	// crashed replicas should take sustained evidence. Default:
	// SlowSuspectAfter + 9.
	SlowDeadAfter int
	// Seed drives the Rank tie-break shuffle among equal-state
	// replicas. Zero is a valid seed; campaigns share theirs so ranking
	// replays deterministically.
	Seed uint64
	// Observer receives ReplicaStateChanged events; nil observes nothing.
	Observer obs.Observer
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Name == "" {
		c.Name = "detector"
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 3
	}
	if c.AccuseSuspectAfter <= 0 {
		c.AccuseSuspectAfter = 3
	}
	if c.AccuseDeadAfter <= c.AccuseSuspectAfter {
		c.AccuseDeadAfter = c.AccuseSuspectAfter + 5
	}
	if c.SlowSuspectAfter <= 0 {
		c.SlowSuspectAfter = 3
	}
	if c.SlowDeadAfter <= c.SlowSuspectAfter {
		c.SlowDeadAfter = c.SlowSuspectAfter + 9
	}
	return c
}

// member is the detector's state for one watched replica.
type member struct {
	name        string
	dial        DialFunc
	misses      int
	accusations int
	slowness    int
	state       obs.ReplicaState
	lastSeen    time.Time
}

// recompute derives the member's state from all three evidence
// streams: consecutive heartbeat misses (omission evidence, reset by
// any ack), accumulated accusations (value-fault evidence, never
// reset), and accumulated slowness reports (timing-fault evidence,
// reset by ClearSlow when the latency profile recovers). The worst
// verdict stands, so a replica that heartbeats perfectly while lying
// or limping still degrades — and a convicted liar cannot talk its way
// back to alive by answering pings.
func (m *member) recompute(cfg DetectorConfig) {
	state := obs.ReplicaAlive
	switch {
	case m.misses >= cfg.DeadAfter:
		state = obs.ReplicaDead
	case m.misses >= cfg.SuspectAfter:
		state = obs.ReplicaSuspect
	}
	switch {
	case m.accusations >= cfg.AccuseDeadAfter:
		state = obs.ReplicaDead
	case m.accusations >= cfg.AccuseSuspectAfter && state == obs.ReplicaAlive:
		state = obs.ReplicaSuspect
	}
	switch {
	case m.slowness >= cfg.SlowDeadAfter:
		state = obs.ReplicaDead
	case m.slowness >= cfg.SlowSuspectAfter && state == obs.ReplicaAlive:
		state = obs.ReplicaSuspect
	}
	m.state = state
}

// Detector is a heartbeat-based failure detector: it pings every
// watched replica each interval over the same (possibly faulty)
// transport the clients use, counts consecutive misses, and publishes
// alive/suspect/dead membership. A partitioned replica stops answering
// pings, crosses the suspect threshold within SuspectAfter heartbeat
// windows, and is routed around by Remote clients (RemoteConfig.
// Detector) and by pattern executors that take the detector as their
// variant Ranker.
//
// Suspicion from missed heartbeats is reversible — one acknowledged
// heartbeat resets the miss counter — which is what makes the detector
// safe on a merely slow network (the Chandra-Toueg insight that failure
// detectors over asynchronous networks are necessarily unreliable and
// must be allowed to change their mind). The detector also accepts a
// second, non-reversible evidence stream: Accuse files vote-
// disagreement evidence from Quorum clients, so a Byzantine replica
// that acknowledges every ping while returning wrong answers still
// transitions alive → suspect → dead.
type Detector struct {
	cfg DetectorConfig

	mu      sync.Mutex
	members map[string]*member
	rng     *xrand.Rand // Rank tie-break stream; guarded by mu
}

// NewDetector returns a detector with no members; Watch replicas, then
// either Run it (blocking loop) or drive Poll by hand in tests.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{cfg: cfg, members: make(map[string]*member), rng: xrand.New(cfg.Seed)}
}

// Watch adds a replica to the membership, initially alive. Watching an
// already-watched name replaces its dialer and resets its state.
func (d *Detector) Watch(name string, dial DialFunc) {
	d.mu.Lock()
	d.members[name] = &member{name: name, dial: dial, state: obs.ReplicaAlive}
	d.mu.Unlock()
}

// State returns the detector's opinion of one replica. Unknown names
// are alive: the detector has no evidence against them.
func (d *Detector) State(name string) obs.ReplicaState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[name]; ok {
		return m.state
	}
	return obs.ReplicaAlive
}

// States returns a copy of the full membership.
func (d *Detector) States() map[string]obs.ReplicaState {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]obs.ReplicaState, len(d.members))
	for name, m := range d.members {
		out[name] = m.state
	}
	return out
}

// LastSeen returns when the replica last acknowledged a heartbeat (zero
// if never).
func (d *Detector) LastSeen(name string) time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[name]; ok {
		return m.lastSeen
	}
	return time.Time{}
}

// Rank implements the pattern executors' Ranker contract over replica
// names: alive first, then suspect, then dead. Within a class the
// order is a seeded shuffle, not the caller's order — a stable sort
// here would pin every non-hedged request to whichever live replica
// the caller happens to list first, concentrating all traffic (and all
// wear) on one member of a healthy fleet. The shuffle draws from the
// detector's seeded stream, so a campaign replays the same spread.
// Attaching a Detector with pattern.WithRanker makes sequential
// alternatives try live replicas first and parallel selection prefer a
// live replica's acceptable result.
func (d *Detector) Rank(_ string, names []string) []string {
	out := make([]string, len(names))
	copy(out, names)
	d.mu.Lock()
	class := make(map[string]obs.ReplicaState, len(out))
	for _, name := range out {
		if m, ok := d.members[name]; ok {
			class[name] = m.state
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return class[out[a]] < class[out[b]]
	})
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && class[out[hi]] == class[out[lo]] {
			hi++
		}
		if run := hi - lo; run > 1 {
			d.rng.Shuffle(run, func(i, j int) {
				out[lo+i], out[lo+j] = out[lo+j], out[lo+i]
			})
		}
		lo = hi
	}
	d.mu.Unlock()
	return out
}

// Run drives the heartbeat loop until the context is canceled. It is
// supervisable: AsChild wraps it as a supervision-tree member.
func (d *Detector) Run(ctx context.Context) error {
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			d.Poll(ctx)
		}
	}
}

// AsChild adapts the heartbeat loop into a supervise.ChildSpec.
func (d *Detector) AsChild() supervise.ChildSpec {
	return supervise.ChildSpec{
		Name:    d.cfg.Name,
		Restart: supervise.Transient,
		Run:     d.Run,
	}
}

// Poll performs one heartbeat sweep: every member is pinged
// concurrently and its miss counter and state updated. Exposed so tests
// and simulations can step the detector deterministically instead of
// racing a ticker.
func (d *Detector) Poll(ctx context.Context) {
	d.mu.Lock()
	members := make([]*member, 0, len(d.members))
	for _, m := range d.members {
		members = append(members, m)
	}
	d.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range members {
		if m.dial == nil {
			continue // registered by accusation only; nothing to ping
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			err := d.ping(ctx, m.dial)
			d.record(m.name, err == nil)
		}(m)
	}
	wg.Wait()
}

// ping performs one heartbeat round trip on a fresh connection. Dialing
// fresh each time keeps the heartbeat honest about the dial path — a
// partition that breaks new connections is detected even while old
// pooled connections linger. The Timeout bounds dial and exchange
// together, the exchange the same way a client attempt is bounded.
func (d *Detector) ping(ctx context.Context, dial DialFunc) error {
	deadline := time.Now().Add(d.cfg.Timeout)
	dialCtx, cancel := context.WithDeadline(ctx, deadline)
	raw, err := dial(dialCtx)
	cancel()
	if err != nil {
		return err
	}
	conn := newWireConn(raw)
	defer conn.Close()
	stop := conn.arm(ctx, deadline)
	defer conn.disarm(stop)
	if err := conn.send(&envelope{Kind: kindPing}); err != nil {
		return err
	}
	reply, err := conn.recv()
	if err != nil {
		return err
	}
	if reply.Kind != kindPong {
		return ErrBadFrame
	}
	return nil
}

// record folds one heartbeat outcome into a member's state. Outcomes
// for a name no longer watched are dropped.
func (d *Detector) record(name string, ok bool) {
	d.file(name, false, func(m *member) {
		if ok {
			m.misses = 0
			m.lastSeen = time.Now()
		} else {
			m.misses++
		}
	})
}

// file is the one way evidence reaches a member: under d.mu it applies
// evidence to the named member and recomputes its state, and after
// releasing the lock (observers must not run under it) it emits a
// ReplicaStateChanged event if the state moved. An unwatched name is
// registered, with no dialer, when register is set, and ignored
// otherwise.
func (d *Detector) file(name string, register bool, evidence func(*member)) {
	d.mu.Lock()
	m, found := d.members[name]
	if !found {
		if !register {
			d.mu.Unlock()
			return
		}
		m = &member{name: name, state: obs.ReplicaAlive}
		d.members[name] = m
	}
	from := m.state
	evidence(m)
	m.recompute(d.cfg)
	to := m.state
	d.mu.Unlock()
	if from != to {
		obs.Emit(d.cfg.Observer, obs.ReplicaStateChanged(d.cfg.Name, name, from, to))
	}
}

// Accuse files one piece of value-fault evidence against a replica —
// typically a Quorum client reporting an outvoted reply. Accusations
// accumulate for the lifetime of the membership entry and are
// deliberately not decayed by healthy heartbeats: a Byzantine replica's
// prompt pings are not exculpatory, and decay would let an intermittent
// liar oscillate below the threshold forever. Accusing an unwatched
// name registers it (with no dialer) so purely quorum-driven fleets
// still converge on a verdict about their liars.
func (d *Detector) Accuse(name string) {
	d.file(name, true, func(m *member) { m.accusations++ })
}

// Forget drops a replica from the membership along with all evidence
// against it. The autonomic controller retires a replaced endpoint
// this way, so a dead verdict for a replica that no longer exists
// stops influencing ranking and membership reports.
func (d *Detector) Forget(name string) {
	d.mu.Lock()
	delete(d.members, name)
	d.mu.Unlock()
}

// ReportSlow files one piece of timing-fault evidence against a
// replica — typically the latency ejector reporting an endpoint whose
// EWMA is a peer-relative outlier. Like Accuse, reporting an unwatched
// name registers it (with no dialer). Unlike accusations, slowness is
// reversible through ClearSlow: limps are frequently environmental and
// the recovered replica should serve again.
func (d *Detector) ReportSlow(name string) {
	d.file(name, true, func(m *member) { m.slowness++ })
}

// ClearSlow withdraws all slowness evidence against a replica — the
// ejector calls it when a probed endpoint's latency profile has
// recovered and it is reinstated. Misses and accusations are
// untouched; only the timing track is exculpable.
func (d *Detector) ClearSlow(name string) {
	d.file(name, false, func(m *member) { m.slowness = 0 })
}

// Evidence returns the detector's current evidence against a replica:
// consecutive missed heartbeats (reversible), accumulated accusations
// (never reset), and accumulated slowness reports (reversible via
// ClearSlow). Reports, the control plane's policies, and the faultsim
// stats table use it to show *which* track convicted a replica, not
// just the verdict.
func (d *Detector) Evidence(name string) (misses, accusations, slowness int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[name]; ok {
		return m.misses, m.accusations, m.slowness
	}
	return 0, 0, 0
}

// Accusations returns how many times a replica has been accused.
func (d *Detector) Accusations(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[name]; ok {
		return m.accusations
	}
	return 0
}
