package redundancy_test

// Experiment E28's acceptance test: the autonomic control plane closes
// the loop from fleet-wide diagnosis to live reconfiguration. The same
// three-replica fleet — one replica aging toward wear-out, one killed
// mid-run, one with a deterministic bohrbug — runs twice: with the
// controller frozen by its kill switch the fleet collapses below the
// availability objective; with the loop live the controller replaces
// the dead replica (MTTR measured), rejuvenates the aging one,
// substitutes the buggy one, takes a bounded number of actions (no
// flapping), and holds availability at or above 99%. Nothing leaks a
// goroutine. The fleet is the one `faultsim -control` runs.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/scenario"
)

func TestE28AutonomicControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("the control-plane arms run for a few wall-clock seconds")
	}
	before := runtime.NumGoroutine()
	run := func(on bool) *scenario.Result {
		res, err := scenario.Run(context.Background(), scenario.ControlConfig(1, 1500, on), scenario.Options{})
		if err != nil {
			t.Fatalf("scenario.Run(control=%v): %v", on, err)
		}
		return res
	}
	availability := func(res *scenario.Result) float64 { return float64(res.Served) / float64(len(res.Trials)) }
	static, controlled := run(false), run(true)

	// The static arm proves the faults are real: with the controller
	// frozen the accumulated failures push availability far below the
	// objective.
	if a := availability(static); a >= 0.95 {
		t.Errorf("static arm availability = %.4f, want < 0.95 (the fault schedule should collapse an unmanaged fleet)", a)
	}
	if len(static.Actions) != 0 {
		t.Errorf("static arm took actions %v despite the kill switch", static.Actions)
	}

	// The controlled arm survives the same schedule.
	if a := availability(controlled); a < 0.99 {
		t.Errorf("controlled arm availability = %.4f, want >= 0.99", a)
	}
	if controlled.Actions["replace"] < 1 {
		t.Errorf("controlled arm actions = %v, want at least one replace", controlled.Actions)
	}
	if controlled.Actions["rejuvenate"] < 1 {
		t.Errorf("controlled arm actions = %v, want at least one rejuvenate", controlled.Actions)
	}
	if controlled.Actions["substitute"] != 1 {
		t.Errorf("controlled arm actions = %v, want exactly one substitute (it is terminal)", controlled.Actions)
	}
	if controlled.MTTR <= 0 {
		t.Errorf("controlled arm reported no replacement MTTR")
	} else if controlled.MTTR > 3*time.Second {
		t.Errorf("replacement MTTR = %v, want well under the run length", controlled.MTTR)
	}
	// Bounded intervention: hysteresis and the rate limit keep the loop
	// from flapping — a budget far below one action per tick.
	total := 0
	for _, n := range controlled.Actions {
		total += n
	}
	if total > 12 {
		t.Errorf("controlled arm took %d actions (%v), want a bounded handful", total, controlled.Actions)
	}
	expectNoLeak(t, before, "the control-plane arms")
}
