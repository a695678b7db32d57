package dist

import (
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// feedFleet gives every named endpoint `n` samples at the given
// latency.
func feedFleet(e *Ejector, n int, lat map[string]time.Duration) {
	for i := 0; i < n; i++ {
		for name, d := range lat {
			e.Observe(name, d)
		}
	}
}

func TestEjectorEjectsPeerRelativeOutlier(t *testing.T) {
	collector := obs.NewCollector()
	det := NewDetector(DetectorConfig{SlowSuspectAfter: 1})
	e := NewEjector(EjectorConfig{
		Name: "ej", Threshold: 3, MinSamples: 5, MinKeep: 2,
		Detector: det, Observer: collector,
	})
	feedFleet(e, 6, map[string]time.Duration{
		"r1": time.Millisecond,
		"r2": 20 * time.Millisecond, // 20× the fleet median
		"r3": time.Millisecond,
	})
	if !e.Ejected("r2") {
		t.Fatalf("20× outlier not ejected; snapshot: %+v", e.Snapshot())
	}
	if e.Ejected("r1") || e.Ejected("r3") {
		t.Fatal("healthy endpoints ejected alongside the outlier")
	}
	// The verdict reached the detector's slowness track...
	if _, _, slowness := det.Evidence("r2"); slowness == 0 {
		t.Fatal("ejection filed no slowness evidence with the detector")
	}
	// ...and the observer counted the ejection under the ejector name.
	found := false
	for _, snap := range collector.Snapshot() {
		if snap.Executor == "ej" && snap.Ejections == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("collector did not count the ejection: %+v", collector.Snapshot())
	}
}

func TestEjectorNeedsMinSamples(t *testing.T) {
	e := NewEjector(EjectorConfig{MinSamples: 10, MinKeep: 1})
	feedFleet(e, 5, map[string]time.Duration{
		"r1": time.Millisecond,
		"r2": 100 * time.Millisecond,
	})
	if e.Ejected("r2") {
		t.Fatal("endpoint ejected on fewer than MinSamples observations")
	}
}

func TestEjectorSingleOutlierNeverEjects(t *testing.T) {
	// The E29 configuration: a responsive EWMA (Alpha 0.5) and a low bar
	// (2.5×), where one stall used to lift the EWMA over the bar on its
	// own. A lone outlier — however large — must never eject while the
	// fleet is in full rotation.
	cfg := EjectorConfig{Alpha: 0.5, Threshold: 2.5, MinSamples: 3, MinKeep: 2}
	fleet := map[string]time.Duration{"r1": time.Millisecond, "r2": time.Millisecond, "r3": time.Millisecond}
	for _, stall := range []time.Duration{4 * time.Millisecond, 20 * time.Millisecond, time.Second} {
		e := NewEjector(cfg)
		feedFleet(e, 10, fleet)
		e.Observe("r2", stall)
		feedFleet(e, 10, fleet)
		if e.Ejections() != 0 {
			t.Fatalf("one %v sample ejected an endpoint: %+v", stall, e.Snapshot())
		}
	}

	// A sustained outlier still goes.
	e := NewEjector(cfg)
	feedFleet(e, 10, fleet)
	for i := 0; i < ejectStreak; i++ {
		if e.Ejected("r2") {
			t.Fatalf("ejected after %d slow samples, want %d", i, ejectStreak)
		}
		e.Observe("r2", 20*time.Millisecond)
	}
	if !e.Ejected("r2") {
		t.Fatalf("%d consecutive 20× samples did not eject: %+v", ejectStreak, e.Snapshot())
	}
}

// TestEjectorOvertakenLimperEjected is the E29 limper that loses every
// hedge race: its censored samples read under Threshold× the fleet
// median (the hedge delay plus the winner's round trip bounds them), but
// a hedge launched after each of its attempts finished first, and that
// is the streak. A hedge that lost to an earlier attempt neither extends
// nor breaks it.
func TestEjectorOvertakenLimperEjected(t *testing.T) {
	limping := func() *Ejector {
		e := NewEjector(EjectorConfig{Alpha: 0.3, Threshold: 3, MinSamples: 5, MinKeep: 2})
		feedFleet(e, 5, map[string]time.Duration{"r1": 10 * time.Millisecond, "r3": 10 * time.Millisecond})
		// Five completed samples, never two over the bar in a row, leave
		// r2's EWMA at about 45ms: over the 30ms bar, with no streak.
		for _, d := range []time.Duration{100, 10, 100, 10, 10} {
			e.Observe("r2", d*time.Millisecond)
		}
		if e.Ejected("r2") {
			t.Fatalf("ejected before any censored sample: %+v", e.Snapshot())
		}
		return e
	}

	e := limping()
	for i := 0; i < ejectStreak; i++ {
		if e.Ejected("r2") {
			t.Fatalf("ejected after %d overtaken attempts, want %d", i, ejectStreak)
		}
		e.ObserveCensored("r2", 20*time.Millisecond, true) // 2× the median
	}
	if !e.Ejected("r2") {
		t.Fatalf("%d overtaken attempts did not eject: %+v", ejectStreak, e.Snapshot())
	}

	e = limping()
	for i := 0; i < ejectStreak-1; i++ {
		e.ObserveCensored("r2", 20*time.Millisecond, true)
	}
	// Over the bar, but it lost to an attempt launched before it.
	e.ObserveCensored("r2", 50*time.Millisecond, false)
	if e.Ejected("r2") {
		t.Fatal("a hedge that lost to an earlier attempt extended the streak")
	}
	e.ObserveCensored("r2", 20*time.Millisecond, true)
	if !e.Ejected("r2") {
		t.Fatalf("a hedge that lost to an earlier attempt broke the streak: %+v", e.Snapshot())
	}
}

func TestEjectorFloorHoldsRotation(t *testing.T) {
	// Two endpoints, floor of 2: however slow r2 gets, ejecting it
	// would leave one endpoint in rotation — below the floor.
	e := NewEjector(EjectorConfig{Threshold: 2, MinSamples: 3, MinKeep: 2})
	feedFleet(e, 20, map[string]time.Duration{
		"r1": time.Millisecond,
		"r2": 500 * time.Millisecond,
	})
	if e.Ejected("r1") || e.Ejected("r2") {
		t.Fatal("ejection violated the MinKeep floor")
	}

	// With three endpoints the same floor allows exactly one ejection:
	// the second-slowest must stay, however it compares to the median.
	e = NewEjector(EjectorConfig{Threshold: 2, MinSamples: 3, MinKeep: 2})
	feedFleet(e, 20, map[string]time.Duration{
		"r1": time.Millisecond,
		"r2": 500 * time.Millisecond,
		"r3": 400 * time.Millisecond,
	})
	ejected := 0
	for _, name := range []string{"r1", "r2", "r3"} {
		if e.Ejected(name) {
			ejected++
		}
	}
	if ejected > 1 {
		t.Fatalf("%d endpoints ejected with MinKeep=2 over 3 endpoints, want at most 1", ejected)
	}
}

func TestEjectorProbationAndReinstatement(t *testing.T) {
	collector := obs.NewCollector()
	det := NewDetector(DetectorConfig{SlowSuspectAfter: 1})
	e := NewEjector(EjectorConfig{
		Name: "ej", Threshold: 3, MinSamples: 5, MinKeep: 1,
		ProbeEvery: 4, ReinstateAfter: 3, Detector: det, Observer: collector,
	})
	feedFleet(e, 6, map[string]time.Duration{
		"r1": time.Millisecond,
		"r2": 30 * time.Millisecond,
		"r3": time.Millisecond,
	})
	if !e.Ejected("r2") {
		t.Fatal("outlier not ejected")
	}
	if det.State("r2") != obs.ReplicaSuspect {
		t.Fatalf("detector state after ejection = %v, want suspect", det.State("r2"))
	}

	// Routing decisions mostly sink the ejected endpoint, but every
	// ProbeEvery-th decision grants it a probe at the front.
	names := []string{"r1", "r2", "r3"}
	name := func(i int) string { return names[i] }
	_, _, slowBefore := det.Evidence("r2")
	probes := 0
	for i := 0; i < 16; i++ {
		class := make([]int, 3)
		if p := e.route(3, name, class); p >= 0 {
			if names[p] != "r2" {
				t.Fatalf("probe granted to %s, want the ejected r2", names[p])
			}
			probes++
			// A slow probe (censored by the hedge) resets probation.
			e.ObserveCensored("r2", 25*time.Millisecond, true)
		} else if class[1] <= class[0] {
			t.Fatalf("non-probe decision %d did not penalize the ejected endpoint: %v", i, class)
		}
	}
	if probes != 4 {
		t.Fatalf("probes granted = %d over 16 decisions with ProbeEvery=4, want 4", probes)
	}
	// Every censored probe is slowness evidence, even below the EWMA
	// (25ms against ~30ms here) — else the limp never reaches the
	// control plane.
	if _, _, slow := det.Evidence("r2"); slow != slowBefore+probes {
		t.Fatalf("%d censored probes filed %d slowness reports, want %d", probes, slow-slowBefore, probes)
	}
	if !e.Ejected("r2") {
		t.Fatal("slow probes reinstated the endpoint")
	}

	// Recovery: fast full-sample probes accumulate and reinstate.
	for i := 0; i < 3; i++ {
		if got := e.Reinstatements(); got != 0 {
			t.Fatalf("reinstated after %d good probes, want 3", i)
		}
		e.Observe("r2", time.Millisecond)
	}
	if e.Ejected("r2") {
		t.Fatal("three good probes did not reinstate")
	}
	if e.Reinstatements() != 1 {
		t.Fatalf("Reinstatements = %d, want 1", e.Reinstatements())
	}
	// Reinstatement cleared the slowness evidence.
	if det.State("r2") != obs.ReplicaAlive {
		t.Fatalf("detector state after reinstatement = %v, want alive", det.State("r2"))
	}
	// Slow-start: the EWMA restarted near the fleet median, so the
	// endpoint re-enters at par instead of being instantly re-ejected.
	for _, ep := range e.Snapshot() {
		if ep.Endpoint == "r2" && ep.EWMA > 5*time.Millisecond {
			t.Fatalf("reinstated EWMA = %v, want reset near the fleet median", ep.EWMA)
		}
	}
	// Collector saw the probes and the reinstatement.
	for _, snap := range collector.Snapshot() {
		if snap.Executor == "ej" {
			if snap.Reinstatements != 1 || snap.ProbeLaunches == 0 {
				t.Fatalf("collector counts: %+v, want 1 reinstatement and >0 probes", snap)
			}
		}
	}
}

func TestEjectorCensoredSamplesOnlyPushUp(t *testing.T) {
	e := NewEjector(EjectorConfig{MinSamples: 100})
	e.Observe("r1", 10*time.Millisecond)
	// A quickly-abandoned attempt proves nothing and must not drag the
	// EWMA down.
	e.ObserveCensored("r1", time.Millisecond, true)
	for _, ep := range e.Snapshot() {
		if ep.Endpoint == "r1" && ep.EWMA < 9*time.Millisecond {
			t.Fatalf("censored fast sample dragged EWMA to %v", ep.EWMA)
		}
	}
	// A censored sample slower than the EWMA is real evidence.
	e.ObserveCensored("r1", 100*time.Millisecond, true)
	for _, ep := range e.Snapshot() {
		if ep.Endpoint == "r1" && ep.EWMA <= 10*time.Millisecond {
			t.Fatalf("censored slow sample ignored; EWMA %v", ep.EWMA)
		}
	}
}

func TestEjectorP2CPrefersFasterEndpoint(t *testing.T) {
	e := NewEjector(EjectorConfig{Seed: 3})
	feedFleet(e, 4, map[string]time.Duration{
		"fast": time.Millisecond,
		"slow": 10 * time.Millisecond,
	})
	names := []string{"slow", "fast"}
	name := func(i int) string { return names[i] }
	fastFirst := 0
	const picks = 200
	for i := 0; i < picks; i++ {
		order := []int{0, 1}
		class := []int{0, 0}
		e.p2cFront(order, class, name)
		if names[order[0]] == "fast" {
			fastFirst++
		}
	}
	// Both endpoints are always sampled (n=2), so the faster one wins
	// every comparison except the deterministic exploration ticks
	// (every ExploreEvery-th pick, default 16).
	if want := picks - picks/16; fastFirst != want {
		t.Fatalf("fast endpoint led %d/%d picks, want %d (all but the exploration ticks)", fastFirst, picks, want)
	}
}

func TestEjectorP2CExploresShunnedEndpoint(t *testing.T) {
	// A slow-looking endpoint below the ejection threshold loses every
	// P2C comparison; without exploration it would never serve again —
	// and so never accumulate the samples that either eject it for real
	// or walk its EWMA back down. The exploration ticks guarantee it a
	// trickle.
	e := NewEjector(EjectorConfig{Seed: 4, ExploreEvery: 8})
	feedFleet(e, 4, map[string]time.Duration{
		"r1": time.Millisecond,
		"r2": 2 * time.Millisecond, // slow-looking, not an outlier
	})
	names := []string{"r1", "r2"}
	name := func(i int) string { return names[i] }
	slowFirst := 0
	const picks = 64
	for i := 0; i < picks; i++ {
		order := []int{0, 1}
		class := []int{0, 0}
		e.p2cFront(order, class, name)
		if names[order[0]] == "r2" {
			slowFirst++
		}
	}
	if want := picks / 8; slowFirst != want {
		t.Fatalf("shunned endpoint led %d/%d picks, want the %d exploration ticks", slowFirst, picks, want)
	}
}

func TestEjectorP2CSpreadsEqualEndpoints(t *testing.T) {
	e := NewEjector(EjectorConfig{Seed: 9})
	lat := map[string]time.Duration{"r1": time.Millisecond, "r2": time.Millisecond, "r3": time.Millisecond}
	feedFleet(e, 4, lat)
	names := []string{"r1", "r2", "r3"}
	name := func(i int) string { return names[i] }
	firsts := make(map[string]int)
	const picks = 300
	for i := 0; i < picks; i++ {
		order := []int{0, 1, 2}
		class := []int{0, 0, 0}
		e.p2cFront(order, class, name)
		firsts[names[order[0]]]++
	}
	for _, n := range names {
		if firsts[n] < picks/10 {
			t.Fatalf("endpoint %s led only %d/%d picks; P2C is pinned: %v", n, firsts[n], picks, firsts)
		}
	}
}
