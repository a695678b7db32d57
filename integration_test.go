package redundancy_test

// Integration tests: compositions of several techniques, exercising the
// public API across module boundaries the way a downstream system would.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	redundancy "github.com/softwarefaults/redundancy"
)

// TestRecoveryBlockOverServiceSubstitution composes deliberate code
// redundancy (a recovery block) with opportunistic code redundancy (a
// substituting service proxy): the block's primary calls a remote
// service through the proxy; when every provider is down, the alternate
// computes locally.
func TestRecoveryBlockOverServiceSubstitution(t *testing.T) {
	sig := redundancy.ServiceSignature{Name: "tax", Ops: []string{"rate"}}
	mk := func(name string) *redundancy.SimService {
		s, err := redundancy.NewSimService(name, sig, map[string]func(int) (int, error){
			"rate": func(x int) (int, error) { return x / 10, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	p1, p2 := mk("tax-1"), mk("tax-2")
	reg := redundancy.NewServiceRegistry()
	if err := reg.Register(p1, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(p2, nil); err != nil {
		t.Fatal(err)
	}
	proxy, err := redundancy.NewServiceProxy(reg, sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	state := struct{ Queries int }{}
	remote := redundancy.NewVariant("remote", func(ctx context.Context, amount int) (int, error) {
		state.Queries++
		return proxy.Invoke(ctx, "rate", amount)
	})
	local := redundancy.NewVariant("local-fallback", func(_ context.Context, amount int) (int, error) {
		state.Queries++
		return amount / 10, nil
	})
	block, err := redundancy.NewRecoveryBlock("taxation", &state,
		func(_ int, out int) error {
			if out < 0 {
				return redundancy.ErrNotAccepted
			}
			return nil
		},
		[]redundancy.Variant[int, int]{remote, local})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Phase 1: provider 1 serves.
	if got, err := block.Execute(ctx, 100); err != nil || got != 10 {
		t.Fatalf("phase 1 = (%d, %v)", got, err)
	}
	// Phase 2: provider 1 down — the proxy substitutes within the
	// primary variant; the block never needs its alternate.
	p1.SetDown(true)
	if got, err := block.Execute(ctx, 200); err != nil || got != 20 {
		t.Fatalf("phase 2 = (%d, %v)", got, err)
	}
	if proxy.Substitutions != 1 {
		t.Errorf("substitutions = %d, want 1", proxy.Substitutions)
	}
	// Phase 3: everything down — the recovery block's alternate kicks in.
	p2.SetDown(true)
	if got, err := block.Execute(ctx, 300); err != nil || got != 30 {
		t.Fatalf("phase 3 = (%d, %v)", got, err)
	}
}

// TestNVersionOverAgingProcesses composes N-version programming with
// rejuvenation: three replicas of an aging process serve behind a
// majority vote; rejuvenated replicas keep the ensemble reliable while a
// never-rejuvenated ensemble degrades.
func TestNVersionOverAgingProcesses(t *testing.T) {
	aging := redundancy.AgingFault{ID: 1, HazardAtScale: 1, Scale: 60, Shape: 4}
	build := func(policy redundancy.RejuvenationPolicy, seed uint64) redundancy.Variant[int, int] {
		inner := redundancy.NewVariant("worker", func(_ context.Context, x int) (int, error) {
			return x * 2, nil
		})
		r, err := redundancy.NewRejuvenator(inner, aging, policy, redundancy.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("replica-%d", seed)
		return redundancy.NewVariant(name, r.Execute)
	}
	serve := func(policy redundancy.RejuvenationPolicy) float64 {
		collector := redundancy.NewCollector()
		sys, err := redundancy.NewNVersion(
			[]redundancy.Variant[int, int]{build(policy, 1), build(policy, 2), build(policy, 3)},
			redundancy.EqualOf[int](),
			redundancy.WithObserver(collector))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			_, _ = sys.Execute(context.Background(), i)
		}
		return collector.Executor("parallel-evaluation").Reliability()
	}
	rejuvenated := serve(redundancy.PeriodicRejuvenation{Every: 30})
	unmaintained := serve(redundancy.NeverRejuvenate{})
	if !(rejuvenated > unmaintained) {
		t.Errorf("rejuvenated ensemble (%f) should beat unmaintained (%f)", rejuvenated, unmaintained)
	}
	if rejuvenated < 0.99 {
		t.Errorf("rejuvenated ensemble reliability = %f, want ~1", rejuvenated)
	}
}

// cartComponent is a minimal stateful component implementing the public
// workaround interface, with a seeded bug in its bulk operation.
type cartComponent struct {
	items map[int]bool
}

func (c *cartComponent) Apply(_ context.Context, op redundancy.WorkaroundOp) error {
	switch op.Name {
	case "add":
		c.items[op.Args[0]] = true
	case "addmany":
		lo, hi := op.Args[0], op.Args[1]
		if hi-lo >= 3 {
			hi-- // seeded boundary bug
		}
		for v := lo; v <= hi; v++ {
			c.items[v] = true
		}
	default:
		return fmt.Errorf("unknown op %s", op.Name)
	}
	return nil
}

func (c *cartComponent) Reset(context.Context) error {
	c.items = make(map[int]bool)
	return nil
}

// TestWorkaroundEngineOnPublicComponent drives the workaround engine over
// a user-defined component through the public API only.
func TestWorkaroundEngineOnPublicComponent(t *testing.T) {
	engine, err := redundancy.NewWorkaroundEngine([]redundancy.RewritingRule{{
		Name:     "expand",
		Match:    []string{"addmany"},
		Priority: 5,
		Replace: func(w []redundancy.WorkaroundOp) []redundancy.WorkaroundOp {
			lo, hi := w[0].Args[0], w[0].Args[1]
			out := make([]redundancy.WorkaroundOp, 0, hi-lo+1)
			for v := lo; v <= hi; v++ {
				out = append(out, redundancy.WorkaroundOp{Name: "add", Args: []int{v}})
			}
			return out
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cart := &cartComponent{items: make(map[int]bool)}
	oracle := func(_ context.Context, comp redundancy.WorkaroundComponent) error {
		c, ok := comp.(*cartComponent)
		if !ok {
			return errors.New("wrong component type")
		}
		for v := 0; v <= 5; v++ {
			if !c.items[v] {
				return fmt.Errorf("missing %d", v)
			}
		}
		return nil
	}
	out, err := engine.Execute(context.Background(), cart,
		redundancy.WorkaroundSequence{{Name: "addmany", Args: []int{0, 5}}}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !out.WorkedAround || out.Rule != "expand" {
		t.Errorf("outcome = %+v", out)
	}
	if !cart.items[5] {
		t.Error("workaround did not complete the range")
	}
}

// TestRuleEngineDrivesCheckpointRecovery composes the rule engine with
// the checkpoint runner: a failing step raises an incident, whose
// recovery action rolls the state machine back and replays.
func TestRuleEngineDrivesCheckpointRecovery(t *testing.T) {
	transient := true
	runner, err := redundancy.NewCheckpointRunner(0,
		func(s int, op int) (int, error) {
			if op == 13 && transient {
				return 0, errors.New("transient glitch")
			}
			return s + op, nil
		}, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := redundancy.NewRuleEngine(redundancy.RecoveryRule{
		Name:  "state-machine",
		Match: redundancy.MatchComponent("runner"),
		Actions: []redundancy.RecoveryAction{{
			Name: "rollback-replay-retry",
			Run: func(_ context.Context, inc *redundancy.Incident) error {
				if _, err := runner.Recover(); err != nil {
					return err
				}
				transient = false // the glitch was environmental
				return runner.Step(13)
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []int{1, 2, 13, 4} {
		err := runner.Step(op)
		if err == nil {
			continue
		}
		outcome, herr := engine.Handle(context.Background(),
			&redundancy.Incident{Component: "runner", Err: err})
		if herr != nil {
			t.Fatalf("unhealed: %v", herr)
		}
		if outcome.Action != "rollback-replay-retry" {
			t.Errorf("outcome = %+v", outcome)
		}
	}
	if runner.State() != 20 {
		t.Errorf("state = %d, want 20", runner.State())
	}
}

// TestReplicatedStorePublicAPI exercises the stateful N-version store
// end to end through the facade.
func TestReplicatedStorePublicAPI(t *testing.T) {
	replicas := []redundancy.StoreReplica{
		redundancy.NewSimStoreReplica("pg"),
		redundancy.NewSimStoreReplica("my"),
		redundancy.NewSimStoreReplica("lite"),
	}
	store, err := redundancy.NewReplicatedStore(replicas)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	v, err := store.Get("k")
	if err != nil || v != "v" {
		t.Errorf("Get = (%q, %v)", v, err)
	}
	if _, err := store.Get("absent"); !errors.Is(err, redundancy.ErrKeyNotFound) {
		t.Errorf("err = %v", err)
	}
}

// TestSelfCheckingOverDataDiversity composes self-checking components
// whose inner implementation is a data-diversity retry block.
func TestSelfCheckingOverDataDiversity(t *testing.T) {
	rng := redundancy.NewRand(5)
	fragile := redundancy.NewVariant("fragile", func(_ context.Context, x int) (int, error) {
		if x%10 == 7 {
			return 0, errors.New("failure region")
		}
		return x * 3, nil
	})
	rb, err := redundancy.NewRetryBlock(fragile,
		func(_ int, _ int) error { return nil },
		[]redundancy.Reexpression[int]{{
			Name:  "bump",
			Apply: func(x int, _ *redundancy.Rand) int { return x + 1 },
			Exact: false, // output differs; the self-check tolerates multiples of 3
		}},
		2, rng)
	if err != nil {
		t.Fatal(err)
	}
	diversified := redundancy.NewVariant("diversified", rb.Execute)
	comp, err := redundancy.NewCheckedComponent(diversified, func(_ int, out int) error {
		if out%3 != 0 {
			return redundancy.ErrNotAccepted
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := redundancy.NewSelfCheckingSystem(
		[]redundancy.SelfCheckingComponent[int, int]{comp})
	if err != nil {
		t.Fatal(err)
	}
	// Input 17 is in the failure region; the retry block re-expresses it
	// to 18, whose output 54 passes the built-in divisibility check.
	got, err := sys.Execute(context.Background(), 17)
	if err != nil || got != 54 {
		t.Errorf("= (%d, %v), want (54, nil)", got, err)
	}
}
