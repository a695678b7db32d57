package dist

import (
	"context"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// flakyDial returns a DialFunc that fails while broken is set and
// otherwise dials the real address.
func flakyDial(base DialFunc, broken *atomic.Bool) DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		if broken.Load() {
			return nil, ErrReplicaUnavailable
		}
		return base(ctx)
	}
}

func TestDetectorLifecycle(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	var partitioned atomic.Bool
	collector := obs.NewCollector()
	det := NewDetector(DetectorConfig{
		Timeout:      200 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    4,
		Observer:     collector,
	})
	det.Watch("r1", flakyDial(network.Dial("r1"), &partitioned))
	ctx := context.Background()

	det.Poll(ctx)
	if got := det.State("r1"); got != obs.ReplicaAlive {
		t.Fatalf("healthy replica: %v, want alive", got)
	}
	if det.LastSeen("r1").IsZero() {
		t.Fatal("acknowledged heartbeat did not record LastSeen")
	}

	partitioned.Store(true)
	det.Poll(ctx)
	if got := det.State("r1"); got != obs.ReplicaAlive {
		t.Fatalf("one miss: %v, want still alive (SuspectAfter=2)", got)
	}
	det.Poll(ctx)
	if got := det.State("r1"); got != obs.ReplicaSuspect {
		t.Fatalf("two misses: %v, want suspect", got)
	}
	det.Poll(ctx)
	det.Poll(ctx)
	if got := det.State("r1"); got != obs.ReplicaDead {
		t.Fatalf("four misses: %v, want dead", got)
	}

	// Suspicion is reversible: one acknowledged heartbeat resurrects.
	partitioned.Store(false)
	det.Poll(ctx)
	if got := det.State("r1"); got != obs.ReplicaAlive {
		t.Fatalf("heartbeat after recovery: %v, want alive again", got)
	}

	// Transitions were observed: alive→suspect, suspect→dead, dead→alive.
	for _, snap := range collector.Snapshot() {
		if snap.ReplicaSuspects == 0 || snap.ReplicaDeaths == 0 {
			t.Fatalf("detector transitions not counted: %+v", snap)
		}
	}
}

func TestDetectorStatesAndUnknown(t *testing.T) {
	det := NewDetector(DetectorConfig{})
	if got := det.State("stranger"); got != obs.ReplicaAlive {
		t.Fatalf("unknown replica: %v, want alive (no evidence against it)", got)
	}
	det.Watch("a", func(ctx context.Context) (net.Conn, error) { return nil, ErrReplicaUnavailable })
	states := det.States()
	if len(states) != 1 || states["a"] != obs.ReplicaAlive {
		t.Fatalf("States: %v, want map[a:alive]", states)
	}
}

func TestDetectorRank(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "up", double())
	det := NewDetector(DetectorConfig{Timeout: 100 * time.Millisecond, SuspectAfter: 1, DeadAfter: 2})
	det.Watch("up", network.Dial("up"))
	det.Watch("down", func(ctx context.Context) (net.Conn, error) { return nil, ErrReplicaUnavailable })
	det.Poll(context.Background())
	det.Poll(context.Background())
	// down has missed twice (dead), up is alive; rank must reorder.
	got := det.Rank("ignored", []string{"down", "up"})
	if want := []string{"up", "down"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank: %v, want %v", got, want)
	}
	// Within a class the order is shuffled, but the class boundary must
	// hold across calls: alive names always precede the dead one.
	for i := 0; i < 20; i++ {
		got = det.Rank("ignored", []string{"stranger", "down", "up"})
		if len(got) != 3 || got[2] != "down" {
			t.Fatalf("Rank call %d: %v, want the dead replica last", i, got)
		}
	}
}

func TestDetectorRankSpreadsEqualStates(t *testing.T) {
	// All three replicas are alive (no evidence against them). A stable
	// sort here would pin every request to the caller's first name,
	// concentrating all non-hedged traffic on one replica; the seeded
	// tie-break must spread primaries across the class.
	det := NewDetector(DetectorConfig{Seed: 7})
	names := []string{"r1", "r2", "r3"}
	firsts := make(map[string]int)
	const calls = 300
	for i := 0; i < calls; i++ {
		firsts[det.Rank("exec", names)[0]]++
	}
	for _, name := range names {
		if firsts[name] < calls/10 {
			t.Fatalf("replica %s ranked first %d/%d times; equal-state ranking is pinned: %v",
				name, firsts[name], calls, firsts)
		}
	}
	// Same seed, fresh detector: the spread replays exactly.
	det2 := NewDetector(DetectorConfig{Seed: 7})
	firsts2 := make(map[string]int)
	for i := 0; i < calls; i++ {
		firsts2[det2.Rank("exec", names)[0]]++
	}
	if !reflect.DeepEqual(firsts, firsts2) {
		t.Fatalf("same seed diverged: %v vs %v", firsts, firsts2)
	}
}

func TestDetectorSlownessTrack(t *testing.T) {
	collector := obs.NewCollector()
	det := NewDetector(DetectorConfig{
		SuspectAfter: 2, DeadAfter: 5,
		SlowSuspectAfter: 3, SlowDeadAfter: 6,
		Observer: collector,
	})
	det.Watch("gray", func(ctx context.Context) (net.Conn, error) { return nil, ErrReplicaUnavailable })

	// Two reports: below the suspect threshold, still alive.
	det.ReportSlow("gray")
	det.ReportSlow("gray")
	if got := det.State("gray"); got != obs.ReplicaAlive {
		t.Fatalf("2 slowness reports: %v, want alive (SlowSuspectAfter=3)", got)
	}
	det.ReportSlow("gray")
	if got := det.State("gray"); got != obs.ReplicaSuspect {
		t.Fatalf("3 slowness reports: %v, want suspect", got)
	}
	if _, _, slowness := det.Evidence("gray"); slowness != 3 {
		t.Fatalf("Evidence slowness = %d, want 3", slowness)
	}
	for i := 0; i < 3; i++ {
		det.ReportSlow("gray")
	}
	if got := det.State("gray"); got != obs.ReplicaDead {
		t.Fatalf("6 slowness reports: %v, want dead (SlowDeadAfter=6)", got)
	}

	// The track is reversible: recovery clears all slowness evidence
	// and the verdict, unlike accusations.
	det.ClearSlow("gray")
	if got := det.State("gray"); got != obs.ReplicaAlive {
		t.Fatalf("after ClearSlow: %v, want alive", got)
	}
	if _, _, slowness := det.Evidence("gray"); slowness != 0 {
		t.Fatalf("Evidence slowness after clear = %d, want 0", slowness)
	}

	// Reporting an unwatched name registers it, like Accuse.
	det.ReportSlow("stranger")
	if _, _, slowness := det.Evidence("stranger"); slowness != 1 {
		t.Fatalf("unwatched ReportSlow: slowness = %d, want 1", slowness)
	}

	// Slowness does not erase the other tracks: a limper that also
	// lies keeps its accusations through ClearSlow.
	det.Accuse("gray")
	det.ClearSlow("gray")
	if _, accusations, _ := det.Evidence("gray"); accusations != 1 {
		t.Fatalf("accusations after ClearSlow = %d, want 1 (only timing evidence is exculpable)", accusations)
	}
}

func TestDetectorRunLoop(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	det := NewDetector(DetectorConfig{Interval: 5 * time.Millisecond, Timeout: 100 * time.Millisecond})
	det.Watch("r1", network.Dial("r1"))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- det.Run(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for det.LastSeen("r1").IsZero() {
		if time.Now().After(deadline) {
			t.Fatal("Run loop produced no heartbeat within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run after cancel: %v, want nil", err)
	}
	child := det.AsChild()
	if child.Name == "" || child.Run == nil {
		t.Fatalf("AsChild incomplete: %+v", child)
	}
}

func TestReplicaStateString(t *testing.T) {
	cases := map[obs.ReplicaState]string{
		obs.ReplicaAlive:     "alive",
		obs.ReplicaSuspect:   "suspect",
		obs.ReplicaDead:      "dead",
		obs.ReplicaState(42): "unknown",
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Fatalf("ReplicaState(%d).String() = %q, want %q", state, got, want)
		}
	}
}

// transitionLog records every ReplicaStateChanged event in emission
// order as "replica:from>to".
type transitionLog struct {
	obs.Nop
	mu  sync.Mutex
	log []string
}

func (l *transitionLog) Event(ev obs.Event) {
	if ev.Kind != obs.KindReplicaStateChanged {
		return
	}
	l.mu.Lock()
	l.log = append(l.log, ev.Subject+":"+obs.ReplicaState(ev.From).String()+">"+obs.ReplicaState(ev.To).String())
	l.mu.Unlock()
}

func TestDetectorFilingRegistersOnlyAccusersOfFault(t *testing.T) {
	det := NewDetector(DetectorConfig{SuspectAfter: 1, DeadAfter: 2})
	// A heartbeat outcome or a cleared limp for a name nobody watches is
	// dropped: neither is evidence worth a membership entry.
	det.record("ghost", false)
	det.ClearSlow("ghost")
	if states := det.States(); len(states) != 0 {
		t.Fatalf("States after record/ClearSlow on unwatched names = %v, want empty", states)
	}
	// Accusations and slowness reports register the name they accuse.
	det.Accuse("liar")
	det.ReportSlow("limper")
	states := det.States()
	if len(states) != 2 || states["liar"] != obs.ReplicaAlive || states["limper"] != obs.ReplicaAlive {
		t.Fatalf("States = %v, want map[liar:alive limper:alive]", states)
	}
	if misses, accusations, slowness := det.Evidence("liar"); misses != 0 || accusations != 1 || slowness != 0 {
		t.Fatalf("Evidence(liar) = %d/%d/%d, want 0/1/0", misses, accusations, slowness)
	}
	if misses, accusations, slowness := det.Evidence("limper"); misses != 0 || accusations != 0 || slowness != 1 {
		t.Fatalf("Evidence(limper) = %d/%d/%d, want 0/0/1", misses, accusations, slowness)
	}
}

func TestDetectorTransitionsEmittedInOrder(t *testing.T) {
	events := &transitionLog{}
	det := NewDetector(DetectorConfig{
		SuspectAfter: 1, DeadAfter: 2,
		AccuseSuspectAfter: 1, AccuseDeadAfter: 2,
		SlowSuspectAfter: 1, SlowDeadAfter: 2,
		Observer: events,
	})
	det.Watch("r1", func(ctx context.Context) (net.Conn, error) { return nil, ErrReplicaUnavailable })

	det.record("r1", false) // alive > suspect
	det.record("r1", false) // suspect > dead
	det.record("r1", true)  // dead > alive
	det.record("r1", true)  // no transition
	det.ReportSlow("r1")    // alive > suspect
	det.ReportSlow("r1")    // suspect > dead
	det.ClearSlow("r1")     // dead > alive
	det.Accuse("r1")        // alive > suspect
	det.ClearSlow("r1")     // no transition: accusations stand
	det.Accuse("r1")        // suspect > dead

	want := []string{
		"r1:alive>suspect", "r1:suspect>dead", "r1:dead>alive",
		"r1:alive>suspect", "r1:suspect>dead", "r1:dead>alive",
		"r1:alive>suspect", "r1:suspect>dead",
	}
	if !reflect.DeepEqual(events.log, want) {
		t.Fatalf("transitions = %v, want %v", events.log, want)
	}
}
