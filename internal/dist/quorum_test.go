package dist

// Quorum client tests: construction-time 2k+1 enforcement, majority
// verdicts over the pipe network, outvoted-liar accusation flow into the
// detector, straggler cancellation after an early verdict, and the
// no-verdict error path. Run with -race: every call fans n concurrent
// round trips.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// intEq is the agreement relation used throughout.
func intEq(a, b int) bool { return a == b }

// startQuorumFleet serves n replicas named r1..rn and returns their
// endpoints. Variants come from mk(i) (0-based).
func startQuorumFleet(t *testing.T, network *PipeNetwork, n int, mk func(i int) core.Variant[int, int]) []Endpoint {
	t.Helper()
	endpoints := make([]Endpoint, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i+1)
		startReplica(t, network, name, mk(i))
		endpoints[i] = Endpoint{Name: name, Dial: network.Dial(name)}
	}
	return endpoints
}

func TestNewQuorumValidation(t *testing.T) {
	network := NewPipeNetwork()
	eps := startQuorumFleet(t, network, 3, func(int) core.Variant[int, int] { return double() })
	adj := vote.Majority[int](intEq)

	if _, err := NewQuorum[int, int]("q", QuorumConfig{}, adj, intEq); !errors.Is(err, core.ErrNoVariants) {
		t.Errorf("no endpoints err = %v, want ErrNoVariants", err)
	}
	if _, err := NewQuorum[int, int]("q", QuorumConfig{}, nil, intEq, eps...); err == nil {
		t.Error("nil adjudicator accepted")
	}
	if _, err := NewQuorum[int, int]("q", QuorumConfig{}, adj, nil, eps...); err == nil {
		t.Error("nil equality accepted")
	}
	if _, err := NewQuorum[int, int]("q", QuorumConfig{Faults: -1}, adj, intEq, eps...); err == nil {
		t.Error("negative fault target accepted")
	}
	// k=2 needs 2k+1=5 replicas; 3 must be refused at construction.
	if _, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 2}, adj, intEq, eps...); !errors.Is(err, ErrQuorumSize) {
		t.Errorf("undersized quorum err = %v, want ErrQuorumSize", err)
	}
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1}, adj, intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	if q.Replicas() != 3 || q.TolerableFaults() != 1 || q.Name() != "q" {
		t.Errorf("accessors = (%d, %d, %q)", q.Replicas(), q.TolerableFaults(), q.Name())
	}
}

func TestQuorumAgreesOverHonestFleet(t *testing.T) {
	network := NewPipeNetwork()
	eps := startQuorumFleet(t, network, 3, func(int) core.Variant[int, int] { return double() })
	collector := obs.NewCollector()
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, Observer: collector},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	for i := 0; i < 20; i++ {
		got, err := q.Execute(context.Background(), i)
		if err != nil || got != 2*i {
			t.Fatalf("Execute(%d) = (%d, %v), want (%d, nil)", i, got, err, 2*i)
		}
	}
	var quorums, disagreements int64
	for _, e := range collector.Snapshot() {
		quorums += e.QuorumsReached
		disagreements += e.VoteDisagreement
	}
	if quorums != 20 {
		t.Errorf("quorums reached = %d, want 20", quorums)
	}
	if disagreements != 0 {
		t.Errorf("vote disagreements = %d over an honest fleet", disagreements)
	}
}

func TestQuorumOutvotesLiarAndAccuses(t *testing.T) {
	network := NewPipeNetwork()
	liar := core.NewVariant("double", func(_ context.Context, x int) (int, error) {
		return 2*x + 2, nil // plausible, wrong, prompt
	})
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		if i == 0 {
			return liar
		}
		return double()
	})
	detector := NewDetector(DetectorConfig{AccuseSuspectAfter: 3, AccuseDeadAfter: 8})
	collector := obs.NewCollector()
	// MinReplies 3 waits for every reply before the vote. With the default
	// n-k the two honest replies can decide before the liar's settles, and
	// a cancelled straggler is never accused: about one run in eighty
	// left the liar a straggler on all 20 requests.
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, MinReplies: 3, Detector: detector, Observer: collector},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	for i := 0; i < 20; i++ {
		got, err := q.Execute(context.Background(), i)
		if err != nil || got != 2*i {
			t.Fatalf("Execute(%d) = (%d, %v): the liar was not outvoted", i, got, err)
		}
	}
	if acc := detector.Accusations("r1"); acc == 0 {
		t.Error("no accusations recorded against the lying replica")
	}
	if state := detector.States()["r1"]; state == obs.ReplicaAlive {
		t.Errorf("r1 still %v after persistent lying; accusations should have convicted it", state)
	}
	var outvoted int64
	for _, e := range collector.Snapshot() {
		outvoted += e.ReplicasOutvoted
	}
	if outvoted == 0 {
		t.Error("no ReplicaOutvoted events emitted")
	}
}

func TestQuorumEarlyVerdictCancelsStraggler(t *testing.T) {
	network := NewPipeNetwork()
	straggler := core.NewVariant("double", func(ctx context.Context, x int) (int, error) {
		select {
		case <-time.After(5 * time.Second):
			return 2 * x, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		if i == 2 {
			return straggler
		}
		return double()
	})
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, MinReplies: 2, CallTimeout: 10 * time.Second},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	start := time.Now()
	got, err := q.Execute(context.Background(), 21)
	if err != nil || got != 42 {
		t.Fatalf("Execute = (%d, %v), want (42, nil)", got, err)
	}
	// Two prompt agreeing replies are a strict majority of 3: the verdict
	// must not wait out the straggler's five seconds.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("verdict took %v; the straggler was awaited instead of cancelled", elapsed)
	}
}

func TestQuorumNoVerdictBlamesNobody(t *testing.T) {
	network := NewPipeNetwork()
	// Three replicas, three distinct answers: no majority exists, and
	// with no verdict no individual replica can be singled out.
	eps := startQuorumFleet(t, network, 3, func(i int) core.Variant[int, int] {
		return core.NewVariant("double", func(_ context.Context, x int) (int, error) {
			return 2*x + i, nil
		})
	})
	detector := NewDetector(DetectorConfig{})
	q, err := NewQuorum[int, int]("q", QuorumConfig{Faults: 1, Detector: detector},
		vote.Majority[int](intEq), intEq, eps...)
	if err != nil {
		t.Fatalf("NewQuorum: %v", err)
	}
	defer q.Close()
	_, err = q.Execute(context.Background(), 5)
	if !errors.Is(err, core.ErrNoConsensus) {
		t.Fatalf("Execute err = %v, want ErrNoConsensus", err)
	}
	for _, name := range []string{"r1", "r2", "r3"} {
		if acc := detector.Accusations(name); acc != 0 {
			t.Errorf("%s accused %d times despite no verdict", name, acc)
		}
	}
}

func TestDetectorAccusationsConvictWithoutMissedHeartbeats(t *testing.T) {
	d := NewDetector(DetectorConfig{AccuseSuspectAfter: 3, AccuseDeadAfter: 5})
	// Accuse registers the replica on first use; no Watch needed.
	for i := 0; i < 2; i++ {
		d.Accuse("liar")
	}
	if state := d.States()["liar"]; state != obs.ReplicaAlive {
		t.Fatalf("state after 2 accusations = %v, want alive", state)
	}
	d.Accuse("liar")
	if state := d.States()["liar"]; state != obs.ReplicaSuspect {
		t.Fatalf("state after 3 accusations = %v, want suspect", state)
	}
	d.Accuse("liar")
	d.Accuse("liar")
	if state := d.States()["liar"]; state != obs.ReplicaDead {
		t.Fatalf("state after 5 accusations = %v, want dead", state)
	}
	if got := d.Accusations("liar"); got != 5 {
		t.Errorf("Accusations = %d, want 5", got)
	}
	if got := d.Accusations("unknown"); got != 0 {
		t.Errorf("Accusations(unknown) = %d, want 0", got)
	}
}
