package scenario

// The quorum mode (E27): a 2k+1 fleet whose first replicas are
// Byzantine — they execute correctly and ack every heartbeat, but
// return a plausible wrong answer by the Config's adversary strategy. A
// QuorumVariant fans every request to the whole fleet and majority-
// votes the replies; its outvote reports reach the detector as
// accusations, the only track that can convict a replica that never
// misses a heartbeat.

import (
	"context"
	"fmt"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/dist"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
)

var quorumDetector = dist.DetectorConfig{
	Name: "quorum-detector", Interval: 50 * time.Millisecond, Timeout: 40 * time.Millisecond,
	SuspectAfter: 2, DeadAfter: 6,
}

// QuorumConfig is the Config of a quorum run: replicas servers, the
// adversary spec ("strategy[:count]") applied to the first of them.
func QuorumConfig(seed uint64, replicas int, adversary string, requests int) campaign.Config {
	cfg := fleetConfig("quorum", "quorum", seed, requests)
	cfg.Variants, cfg.Replicas, cfg.Adversary = 0, replicas, adversary
	cfg.Executor.CallTimeout = callTimeout
	return cfg
}

func runQuorum(ctx context.Context, f *fleet) error {
	strategy, liarCount, err := faultmodel.ParseAdversarySpec(f.cfg.Adversary)
	if err != nil {
		return err
	}
	n := f.cfg.Replicas
	if liarCount > n {
		return fmt.Errorf("adversary count %d exceeds %d replicas", liarCount, n)
	}
	f.start("quorum-fleet", quorumDetector)
	fleetNames := names(n)
	liars := make(map[string]bool, n)
	var adversaries []*faultmodel.Adversary[int, int]
	for i, name := range fleetNames {
		v := double
		if liars[name] = i < liarCount; liars[name] {
			adv := &faultmodel.Adversary[int, int]{
				Base:     double,
				Strategy: strategy,
				Seed:     f.cfg.Seed,
				Replica:  name,
				// A plausible lie, deterministic in the input, so colluders
				// agree with each other.
				Lie: func(_, correct int) int { return correct + 2 },
				Key: faultmodel.HashInt,
			}
			adversaries = append(adversaries, adv)
			v = adv
		}
		if _, err := f.serve(name, v, false); err != nil {
			return err
		}
	}
	quorum, err := dist.NewQuorum[int, int]("quorum", dist.QuorumConfig{
		CallTimeout: time.Duration(f.cfg.Executor.CallTimeout),
		Faults:      vote.TolerableFaults(n),
		Detector:    f.detector,
		Observer:    f.observer,
	}, vote.Majority(core.EqualOf[int]()), core.EqualOf[int](), f.endpoints(fleetNames)...)
	if err != nil {
		return err
	}
	defer quorum.Close()
	if err := f.launch(ctx); err != nil {
		return err
	}

	label := "lie:" + string(strategy)
	for x := 0; x < f.cfg.Requests; x++ {
		// Ground truth from the adversaries' own determinism, never from
		// the replies.
		fault := ""
		for _, adv := range adversaries {
			if adv.Lies(x) {
				fault = label
			}
		}
		i, correct := f.call(ctx, quorum, x, fault, "quorum")
		if fault != "" {
			f.res.Attacked++
			if correct { // the lie lost the vote
				f.mu.Lock()
				f.res.Trials[i].Detected = true
				f.mu.Unlock()
			}
		}
	}
	f.stop()
	convicted := map[string]bool{}
	for name, state := range f.detector.States() {
		convicted[name] = state != obs.ReplicaAlive
	}
	f.res.Conviction = campaign.NewConviction(liars, convicted)
	return nil
}
