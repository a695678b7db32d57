package redundancy_test

// Experiment E29's acceptance test: gray-failure resilience. The same
// three-replica fleet runs twice against the same seeded fail-slow
// fault — the configured primary limps 20× through the middle of the
// run while heartbeating on time and answering correctly. Unmitigated,
// the fleet's p99 inflates by an order of magnitude and nothing else
// in the stack can even see the fault (the detector's miss and
// accusation tracks stay empty). With the mitigation stack live —
// hedged requests, latency-outlier ejection with probation, and the
// gray-failure rejuvenation policy — the limper is ejected quickly and
// precisely (TPR 1, FPR 0), the tail holds near baseline, the ejection
// floor never drops the rotation below two endpoints, and the cured
// limper is reinstated before the run ends. Nothing leaks a goroutine.
// The fleet is the one `faultsim -gray` runs.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/scenario"
)

// ejections records every ReplicaEjected verdict with the EWMA and
// fleet median it was taken on.
type ejections struct {
	obs.Nop
	mu       sync.Mutex
	verdicts []string
}

func (e *ejections) Event(ev obs.Event) {
	if ev.Kind == obs.KindReplicaEjected {
		e.mu.Lock()
		e.verdicts = append(e.verdicts, fmt.Sprintf("%s ewma=%v median=%v", ev.Subject, ev.Latency, ev.Median))
		e.mu.Unlock()
	}
}

func TestE29GrayFailureResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("the gray-failure arms run for several wall-clock seconds")
	}
	before := runtime.NumGoroutine()
	// The unmitigated arm spends its limp window at 20× the service
	// time, so it runs fewer requests; the mitigated arm runs more, so
	// its p99 is not decided by the handful of hedged requests that
	// detecting the limper costs.
	run := func(on bool, requests int, o obs.Observer) *scenario.Result {
		res, err := scenario.Run(context.Background(), scenario.GrayConfig(7, requests, on, "constant:20"), scenario.Options{Observer: o})
		if err != nil {
			t.Fatalf("scenario.Run(gray=%v): %v", on, err)
		}
		return res
	}
	verdicts := &ejections{}
	unmitigated, mitigated := run(false, 500, nil), run(true, 700, verdicts)

	// Both arms stay perfectly available and correct: a gray failure is
	// not an outage, which is exactly why only the latency profile can
	// catch it.
	for arm, r := range map[string]*scenario.Result{"unmitigated": unmitigated, "mitigated": mitigated} {
		if r.Served != len(r.Trials) || r.Wrong != 0 {
			t.Errorf("%s arm served %d/%d with %d wrong answers, want all correct", arm, r.Served, len(r.Trials), r.Wrong)
		}
		// Individual heartbeats may blip under scheduler noise, but a
		// limper that acks and answers must never accumulate into an
		// accusation on the liveness track.
		misses, accusations := 0, 0
		for _, m := range r.Members {
			misses += m.Misses
			accusations += m.Accusations
		}
		if accusations != 0 {
			t.Errorf("%s arm: detector filed %d accusations (%d misses) against a limper that acks and answers", arm, accusations, misses)
		}
	}

	// The unmitigated arm proves the fault is real and invisible: the
	// tail inflates by an order of magnitude while the detector holds
	// every replica alive.
	if amp := unmitigated.Ejection.TailAmplification; amp < 10 {
		t.Errorf("unmitigated tail amplification = %.1f (p99 %v over baseline %v), want >= 10",
			amp, unmitigated.P99, unmitigated.BaselineP99)
	}
	if n := unmitigated.Actions["rejuvenate"]; n != 0 {
		t.Fatalf("unmitigated arm rejuvenated %d times with no controller", n)
	}

	// The mitigated arm contains it: near-baseline tail, exact ejection.
	e := mitigated.Ejection
	if e.TailAmplification > 2 {
		t.Errorf("mitigated tail amplification = %.1f (p99 %v over baseline %v), want <= 2",
			e.TailAmplification, mitigated.P99, mitigated.BaselineP99)
	}
	if e.EjectedLimpers == 0 {
		t.Errorf("mitigated arm never ejected the limper (TPR 0, want >= 0.9)")
	}
	if e.EjectedHealthy != 0 {
		t.Errorf("mitigated arm ejected %d healthy replicas (FPR %.2f, want <= 0.05); verdicts: %s",
			e.EjectedHealthy, e.FPR, strings.Join(verdicts.verdicts, "; "))
	}
	if mitigated.FloorViolations != 0 {
		t.Errorf("ejection dropped the rotation below MinKeep on %d routing decisions", mitigated.FloorViolations)
	}
	if mitigated.Actions["rejuvenate"] < 1 {
		t.Errorf("the gray-failure policy never rejuvenated the limper")
	}
	if e.Reinstated < 1 {
		t.Errorf("the cured limper was never reinstated")
	}
	for _, ep := range mitigated.Latency {
		if ep.Endpoint == "r1" && ep.Ejected {
			t.Errorf("the limper is still ejected at run end despite recovering")
		}
	}
	expectNoLeak(t, before, "the gray-failure arms")
}
