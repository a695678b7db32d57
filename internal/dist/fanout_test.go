package dist

// Invariants of the one fan-out, property-tested over seeded schedules:
// random fleet sizes, hedge settings, quorum sizes, and per-replica
// behaviour (prompt, slow, failing, lying). Remote and Quorum share the
// launch/settle loop, so every invariant is checked against the lineage
// the loop itself reports through a trace observer:
//
//   - every launched attempt is settled exactly once: the lineage holds
//     attempts 1..L, each once, each on a distinct endpoint;
//   - the hedge timer never exceeds MaxHedges: beyond the primary, only
//     failures may launch attempts past the budget;
//   - a decided request has its winners marked (one under
//     first-acceptable-wins, the agreeing votes under a quorum), a failed
//     one has none;
//   - no accusation without a verdict, and none against an honest
//     replica while the liars stay within k;
//   - a quorum fleet never shrinks below 2k+1.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// lineageRecorder keeps, per request, the attempt lineage and the fan-out
// events a client emitted.
type lineageRecorder struct {
	obs.Nop
	mu       sync.Mutex
	attempts map[uint64][]obs.RPCAttempt
	events   map[uint64]map[obs.Kind][]obs.Event
}

func newLineageRecorder() *lineageRecorder {
	return &lineageRecorder{
		attempts: make(map[uint64][]obs.RPCAttempt),
		events:   make(map[uint64]map[obs.Kind][]obs.Event),
	}
}

func (r *lineageRecorder) RequestTraced(string, uint64, obs.TraceContext) {}

func (r *lineageRecorder) RPCAttempted(_ string, req uint64, a obs.RPCAttempt) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts[req] = append(r.attempts[req], a)
}

func (r *lineageRecorder) Event(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events[ev.Req] == nil {
		r.events[ev.Req] = make(map[obs.Kind][]obs.Event)
	}
	r.events[ev.Req][ev.Kind] = append(r.events[ev.Req][ev.Kind], ev)
}

// last returns copies of the lineage and events of the most recent
// request: a cancelled straggler may still be reporting into them.
func (r *lineageRecorder) last() ([]obs.RPCAttempt, map[obs.Kind][]obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var req uint64
	for id := range r.attempts {
		req = max(req, id)
	}
	events := make(map[obs.Kind][]obs.Event)
	for kind, evs := range r.events[req] {
		events[kind] = append([]obs.Event(nil), evs...)
	}
	return append([]obs.RPCAttempt(nil), r.attempts[req]...), events
}

// behaviour is one replica's conduct in a schedule.
type behaviour int

const (
	prompt behaviour = iota
	slow
	failing
	lying
)

// scheduledVariant doubles its input, after a stall when slow, or fails,
// or answers plausibly but wrongly.
func scheduledVariant(b behaviour, stall time.Duration) core.Variant[int, int] {
	return core.NewVariant("double", func(ctx context.Context, x int) (int, error) {
		switch b {
		case slow:
			select {
			case <-time.After(stall):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		case failing:
			return 0, errors.New("scheduled failure")
		case lying:
			return 2*x + 1, nil
		}
		return 2 * x, nil
	})
}

// checkLineage asserts the attempt records of one request are attempts
// 1..len, each once, on distinct endpoints, each under its own wire
// span, and returns how many were settled failures and how many won.
func checkLineage(t *testing.T, label string, lineage []obs.RPCAttempt) (failed, won int) {
	t.Helper()
	seenAttempt := make(map[int]bool)
	seenEndpoint := make(map[string]bool)
	seenSpan := make(map[uint64]bool)
	for _, a := range lineage {
		if a.Attempt < 1 || a.Attempt > len(lineage) || seenAttempt[a.Attempt] {
			t.Fatalf("%s: attempt %d recorded out of range or twice in %d records", label, a.Attempt, len(lineage))
		}
		if seenEndpoint[a.Endpoint] {
			t.Fatalf("%s: endpoint %s attempted twice", label, a.Endpoint)
		}
		if a.Span.SpanID == 0 || seenSpan[a.Span.SpanID] {
			t.Fatalf("%s: attempt %d carries no span of its own: %+v", label, a.Attempt, a.Span)
		}
		seenAttempt[a.Attempt], seenEndpoint[a.Endpoint], seenSpan[a.Span.SpanID] = true, true, true
		switch {
		case a.Cancelled && (a.Won || a.Err != nil):
			t.Fatalf("%s: attempt %d both cancelled and settled: %+v", label, a.Attempt, a)
		case a.Won && a.Err != nil:
			t.Fatalf("%s: attempt %d won with an error: %v", label, a.Attempt, a.Err)
		case a.Err != nil:
			failed++
		case a.Won:
			won++
		}
	}
	return failed, won
}

func TestFanoutInvariantsRemote(t *testing.T) {
	rng := xrand.New(7)
	for s := 0; s < 40; s++ {
		n := 2 + rng.Intn(4)
		hedgeAfter := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}[rng.Intn(3)]
		maxHedges := 1 + rng.Intn(n-1)
		network := NewPipeNetwork()
		kinds := make([]behaviour, n)
		endpoints := make([]Endpoint, n)
		healthy := false
		for i := range kinds {
			// Half slow, so the hedge timer has work; the rest prompt or
			// failing.
			kinds[i] = []behaviour{slow, slow, prompt, failing}[rng.Intn(4)]
			healthy = healthy || kinds[i] != failing
			name := fmt.Sprintf("s%d-r%d", s, i+1)
			startReplica(t, network, name, scheduledVariant(kinds[i], time.Duration(5+rng.Intn(6))*time.Millisecond))
			endpoints[i] = Endpoint{Name: name, Dial: network.Dial(name)}
		}
		rec := newLineageRecorder()
		remote, err := NewRemote[int, int]("remote", RemoteConfig{
			HedgeAfter: hedgeAfter, MaxHedges: maxHedges, Observer: rec,
		}, endpoints...)
		if err != nil {
			t.Fatalf("NewRemote: %v", err)
		}
		for x := 0; x < 3; x++ {
			label := fmt.Sprintf("schedule %d (n=%d hedge=%v max=%d %v) input %d", s, n, hedgeAfter, maxHedges, kinds, x)
			got, err := remote.Execute(context.Background(), x)
			lineage, events := rec.last()
			failed, won := checkLineage(t, label, lineage)
			if len(lineage) == 0 || len(lineage) > n {
				t.Fatalf("%s: %d attempts recorded over %d endpoints", label, len(lineage), n)
			}
			// The primary, at most budget timer hedges, and one failover
			// per settled failure.
			if len(lineage) > 1+maxHedges+failed {
				t.Fatalf("%s: %d attempts exceed 1 + MaxHedges %d + %d failures", label, len(lineage), maxHedges, failed)
			}
			if hedgeAfter == 0 && len(lineage) != failed+won {
				t.Fatalf("%s: sequential request left attempts unsettled: %+v", label, lineage)
			}
			if got := len(events[obs.KindHedgeLaunched]); got != len(lineage)-1 {
				t.Fatalf("%s: %d HedgeLaunched events for %d attempts", label, got, len(lineage))
			}
			if !healthy {
				if !errors.Is(err, core.ErrAllVariantsFailed) || won != 0 {
					t.Fatalf("%s: all-failing fleet returned (%d, %v) with %d winners", label, got, err, won)
				}
				continue
			}
			if err != nil || got != 2*x {
				t.Fatalf("%s: Execute = (%d, %v), want (%d, nil)", label, got, err, 2*x)
			}
			if won != 1 || len(events[obs.KindHedgeWon]) != 1 {
				t.Fatalf("%s: %d winners and %d HedgeWon events, want 1 and 1", label, won, len(events[obs.KindHedgeWon]))
			}
		}
		remote.Close()
	}
}

func TestFanoutInvariantsQuorum(t *testing.T) {
	rng := xrand.New(11)
	for s := 0; s < 24; s++ {
		k := rng.Intn(3)
		n := vote.VersionsNeeded(k) + rng.Intn(3)
		// Liars stay within k; failures are unbounded, so some schedules
		// have no verdict to reach.
		liars := rng.Intn(k + 1)
		kinds := make([]behaviour, n)
		for i := range kinds {
			kinds[i] = behaviour(rng.Intn(3))
		}
		for _, i := range rng.Perm(n)[:liars] {
			kinds[i] = lying
		}
		network := NewPipeNetwork()
		endpoints := make([]Endpoint, n)
		for i := range endpoints {
			name := fmt.Sprintf("s%d-r%d", s, i+1)
			startReplica(t, network, name, scheduledVariant(kinds[i], time.Duration(1+rng.Intn(4))*time.Millisecond))
			endpoints[i] = Endpoint{Name: name, Dial: network.Dial(name)}
		}
		rec := newLineageRecorder()
		detector := NewDetector(DetectorConfig{})
		q, err := NewQuorum[int, int]("quorum", QuorumConfig{
			Faults: k, MinReplies: rng.Intn(n + 1), Detector: detector, Observer: rec,
		}, vote.Majority[int](intEq), intEq, endpoints...)
		if err != nil {
			t.Fatalf("NewQuorum: %v", err)
		}
		accused := func() map[string]int {
			out := make(map[string]int, n)
			for _, ep := range endpoints {
				out[ep.Name] = detector.Accusations(ep.Name)
			}
			return out
		}
		for x := 0; x < 3; x++ {
			label := fmt.Sprintf("schedule %d (n=%d k=%d %v) input %d", s, n, k, kinds, x)
			before := accused()
			got, err := q.Execute(context.Background(), x)
			after := accused()
			lineage, events := rec.last()
			_, won := checkLineage(t, label, lineage)
			if len(lineage) != n {
				t.Fatalf("%s: %d attempts recorded, a quorum queries all %d", label, len(lineage), n)
			}
			for i, a := range lineage {
				if a.Endpoint != endpoints[a.Attempt-1].Name {
					t.Fatalf("%s: record %d is attempt %d on %s, want configured order", label, i, a.Attempt, a.Endpoint)
				}
			}
			if h, w := len(events[obs.KindHedgeLaunched]), len(events[obs.KindHedgeWon]); h+w != 0 {
				t.Fatalf("%s: a quorum emitted %d HedgeLaunched and %d HedgeWon events", label, h, w)
			}
			if err != nil {
				if won != 0 {
					t.Fatalf("%s: failed request marked %d winners", label, won)
				}
				for name, c := range after {
					if c != before[name] {
						t.Fatalf("%s: %s accused with no verdict (%v)", label, name, err)
					}
				}
				continue
			}
			if got != 2*x {
				t.Fatalf("%s: verdict %d, want %d: %d liars outvoted nobody", label, got, 2*x, liars)
			}
			reached := events[obs.KindQuorumReached]
			if len(reached) != 1 || reached[0].N != won {
				t.Fatalf("%s: QuorumReached %+v, want one with %d votes", label, reached, won)
			}
			for i, ep := range endpoints {
				if kinds[i] != lying && after[ep.Name] != before[ep.Name] {
					t.Fatalf("%s: honest %s accused", label, ep.Name)
				}
			}
		}
		q.Close()
	}
}

func TestQuorumFleetNeverBelowTwoKPlusOne(t *testing.T) {
	network := NewPipeNetwork()
	const k, spare = 1, 3
	endpoints := startQuorumFleet(t, network, vote.VersionsNeeded(k)+spare, func(int) core.Variant[int, int] { return double() })
	floor := vote.VersionsNeeded(k)
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: k}, vote.Majority[int](intEq), intEq, endpoints[:floor]...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	rng := xrand.New(3)
	members := map[string]bool{}
	for _, ep := range endpoints[:floor] {
		members[ep.Name] = true
	}
	for step := 0; step < 60; step++ {
		ep := endpoints[rng.Intn(len(endpoints))]
		if members[ep.Name] {
			err := q.RemoveEndpoint(ep.Name)
			if atFloor := len(members) == floor; atFloor != (err != nil) {
				t.Fatalf("step %d: RemoveEndpoint(%s) at %d members = %v", step, ep.Name, len(members), err)
			}
			if err == nil {
				delete(members, ep.Name)
			}
		} else {
			if err := q.AddEndpoint(ep); err != nil {
				t.Fatalf("step %d: AddEndpoint(%s): %v", step, ep.Name, err)
			}
			members[ep.Name] = true
		}
		if got := q.Replicas(); got != len(members) || got < floor {
			t.Fatalf("step %d: Replicas() = %d, members %d, floor %d", step, got, len(members), floor)
		}
		if got, err := q.Execute(context.Background(), step); err != nil || got != 2*step {
			t.Fatalf("step %d: Execute over %d replicas = (%d, %v)", step, q.Replicas(), got, err)
		}
	}
}
