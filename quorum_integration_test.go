package redundancy_test

// Experiment E27's acceptance test: a 2k+1 quorum fleet under a lying-
// replica adversary. Replicas that execute correctly, ack every
// heartbeat, and return plausible wrong answers — always, on an
// intermittent input subset, or colluding on the same inputs with the
// same lie — must never get a wrong answer accepted while the liars
// number at most k; availability holds, and the vote-disagreement
// accusation channel convicts the liars (TPR >= 0.9) without framing
// honest replicas (FPR <= 0.05). The converse matters as much: the same
// colluding pair that loses every vote at n=5 wins them at n=3, because
// 2 > k=1 — the paper's 2k+1 sizing bound demonstrated from both sides.
// The fleet is the one `faultsim -adversary` runs.

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"github.com/softwarefaults/redundancy/internal/scenario"
)

func TestE27ByzantineQuorum(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(t *testing.T, n int, adversary string) *scenario.Result {
		t.Helper()
		res, err := scenario.Run(context.Background(), scenario.QuorumConfig(7, n, adversary, 400), scenario.Options{})
		if err != nil {
			t.Fatalf("scenario.Run: %v", err)
		}
		return res
	}

	for _, adversary := range []string{"always:1", "intermittent:2", "collude:2"} {
		t.Run(strings.Replace(adversary, ":", "_", 1)+"_of_5", func(t *testing.T) {
			res := run(t, 5, adversary)
			if res.Wrong != 0 {
				t.Errorf("%d wrong answers accepted; a quorum of 5 must outvote %s liars", res.Wrong, adversary)
			}
			avail := float64(res.Served) / float64(len(res.Trials))
			if avail < 0.99 {
				t.Errorf("availability %.4f < 0.99 (%d/%d served)", avail, res.Served, len(res.Trials))
			}
			if c := res.Conviction; c.TPR < 0.9 {
				t.Errorf("conviction TPR %.2f < 0.9: liars escaped (membership %v)", c.TPR, res.Members)
			}
			if c := res.Conviction; c.FPR > 0.05 {
				t.Errorf("conviction FPR %.2f > 0.05: honest replicas framed (membership %v)", c.FPR, res.Members)
			}
		})
	}

	t.Run("collude_2_of_3_breaks_the_quorum", func(t *testing.T) {
		// The same cartel of 2, now a majority: n=3 tolerates only k=1.
		res := run(t, 3, "collude:2")
		if res.Wrong == 0 {
			t.Errorf("colluding majority served no wrong answers at n=3 — the 2k+1 bound should be violated here")
		}
		if res.Attacked == 0 {
			t.Fatalf("adversary never attacked; test is vacuous")
		}
	})
	expectNoLeak(t, before, "the quorum runs")
}
