package redundancy_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

func double(name string, bias int) redundancy.Variant[int, int] {
	return redundancy.NewVariant(name, func(_ context.Context, x int) (int, error) {
		return x*2 + bias, nil
	})
}

func TestPublicNVersion(t *testing.T) {
	sys, err := redundancy.NewNVersion(
		[]redundancy.Variant[int, int]{double("a", 0), double("b", 0), double("c", 1)},
		redundancy.EqualOf[int](),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Execute(context.Background(), 21)
	if err != nil || got != 42 {
		t.Errorf("= (%d, %v), want (42, nil)", got, err)
	}
	if redundancy.VersionsNeeded(1) != 3 || redundancy.TolerableFaults(5) != 2 {
		t.Error("quorum helpers wrong")
	}
}

func TestPublicRecoveryBlock(t *testing.T) {
	state := struct{ Calls int }{}
	primary := redundancy.NewVariant("primary", func(_ context.Context, x int) (int, error) {
		return 0, errors.New("primary fails")
	})
	alternate := double("alternate", 0)
	blk, err := redundancy.NewRecoveryBlock("blk", &state,
		func(_ int, out int) error {
			if out%2 != 0 {
				return redundancy.ErrNotAccepted
			}
			return nil
		},
		[]redundancy.Variant[int, int]{primary, alternate},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := blk.Execute(context.Background(), 4)
	if err != nil || got != 8 {
		t.Errorf("= (%d, %v), want (8, nil)", got, err)
	}
}

func TestPublicSelfChecking(t *testing.T) {
	acting, err := redundancy.NewCheckedComponent(double("acting", 1),
		func(_ int, out int) error {
			if out%2 != 0 {
				return redundancy.ErrNotAccepted
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	spare, err := redundancy.NewComparedPair(double("s1", 0), double("s2", 0), redundancy.EqualOf[int]())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := redundancy.NewSelfCheckingSystem(
		[]redundancy.SelfCheckingComponent[int, int]{acting, spare})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Execute(context.Background(), 5)
	if err != nil || got != 10 {
		t.Errorf("= (%d, %v), want spare result 10", got, err)
	}
}

func TestPublicPatternsAndAdjudicators(t *testing.T) {
	collector := redundancy.NewCollector()
	pe, err := redundancy.NewParallelEvaluation(
		[]redundancy.Variant[int, int]{double("a", 0), double("b", 0)},
		redundancy.Unanimity(redundancy.EqualOf[int]()),
		redundancy.WithObserver(collector),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pe.Execute(context.Background(), 1); err != nil || got != 2 {
		t.Errorf("= (%d, %v)", got, err)
	}
	if collector.Executor("parallel-evaluation").Executions() != 2 {
		t.Error("executions not recorded")
	}
	if _, err := redundancy.MedianAdjudicator().Adjudicate([]redundancy.Result[float64]{
		{Variant: "x", Value: 3},
	}); err != nil {
		t.Error(err)
	}
}

func TestPublicDataDiversity(t *testing.T) {
	rng := redundancy.NewRand(1)
	program := redundancy.NewVariant("p", func(_ context.Context, x int) (int, error) {
		if x == 13 {
			return 0, errors.New("failure region")
		}
		return x, nil
	})
	rb, err := redundancy.NewRetryBlock(program,
		func(_ int, _ int) error { return nil },
		[]redundancy.Reexpression[int]{{
			Name:  "bump",
			Apply: func(x int, _ *redundancy.Rand) int { return x + 1 },
			Exact: false,
		}},
		2, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rb.Execute(context.Background(), 13)
	if err != nil || got != 14 {
		t.Errorf("= (%d, %v)", got, err)
	}

	cell, err := redundancy.NewNVariantCell(3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cell.Set(7)
	cell.CorruptUniform(0xdead)
	if _, err := cell.Get(); !errors.Is(err, redundancy.ErrCorruptionDetected) {
		t.Errorf("err = %v", err)
	}
}

func TestPublicEnvironmentTechniques(t *testing.T) {
	// RX ladder heals an env-dependent failure.
	calls := 0
	prog := func(_ context.Context, env *redundancy.Env, x int) (int, error) {
		calls++
		if env.AllocPadding < 64 {
			return 0, errors.New("overflow")
		}
		return x, nil
	}
	exec, err := redundancy.NewPerturbationExecutor(prog, redundancy.DefaultEnv(),
		redundancy.DefaultPerturbationLadder())
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Execute(context.Background(), 9)
	if err != nil || got != 9 {
		t.Errorf("= (%d, %v)", got, err)
	}

	// Checkpoint runner round-trip.
	runner, err := redundancy.NewCheckpointRunner(0,
		func(s int, op int) (int, error) { return s + op, nil }, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []int{1, 2, 3} {
		if err := runner.Step(op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runner.Recover(); err != nil {
		t.Fatal(err)
	}
	if runner.State() != 6 {
		t.Errorf("state = %d", runner.State())
	}
}

func TestPublicReplicaSystem(t *testing.T) {
	sys, err := redundancy.NewReplicaSystem(3, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(redundancy.ReplicaRequest{
		Op: redundancy.ReplicaWrite, Addr: 1, Value: 5,
	}); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Execute(redundancy.ReplicaRequest{
		Op: redundancy.ReplicaWrite, Addr: sys.Process(0).Base(), Absolute: true, Value: 5,
	})
	if !errors.Is(err, redundancy.ErrAttackDetected) {
		t.Errorf("err = %v", err)
	}
}

func TestPublicMicroreboot(t *testing.T) {
	sys, err := redundancy.NewComponentSystem(redundancy.ComponentSpec{
		Name: "root", InitCost: 10,
		Children: []redundancy.ComponentSpec{{Name: "leaf", InitCost: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Fail("leaf"); err != nil {
		t.Fatal(err)
	}
	mgr, err := redundancy.NewRecoveryManager(sys)
	if err != nil {
		t.Fatal(err)
	}
	if cost := mgr.Recover(); cost != 1 {
		t.Errorf("cost = %f", cost)
	}
}

func TestPublicWrappers(t *testing.T) {
	h, err := redundancy.NewHeap(256)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := h.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	healer, err := redundancy.NewHeapHealer(h, redundancy.RejectOverflow)
	if err != nil {
		t.Fatal(err)
	}
	if err := healer.Write(blk, 0, make([]byte, 64)); !errors.Is(err, redundancy.ErrOverflowPrevented) {
		t.Errorf("err = %v", err)
	}

	res := redundancy.NewCOTSResource()
	w, err := redundancy.NewProtocolWrapper(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Use(); err != nil {
		t.Errorf("wrapped use-before-open: %v", err)
	}
}

func TestPublicServiceSubstitution(t *testing.T) {
	sig := redundancy.ServiceSignature{Name: "calc", Ops: []string{"add"}}
	mk := func(name string) *redundancy.SimService {
		s, err := redundancy.NewSimService(name, sig, map[string]func(int) (int, error){
			"add": func(x int) (int, error) { return x + 1, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reg := redundancy.NewServiceRegistry()
	s1, s2 := mk("s1"), mk("s2")
	if err := reg.Register(s1, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(s2, nil); err != nil {
		t.Fatal(err)
	}
	proxy, err := redundancy.NewServiceProxy(reg, sig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetDown(true)
	got, err := proxy.Invoke(context.Background(), "add", 1)
	if err != nil || got != 2 {
		t.Errorf("= (%d, %v)", got, err)
	}
	if proxy.Substitutions != 1 {
		t.Errorf("substitutions = %d", proxy.Substitutions)
	}
}

func TestPublicRuleEngine(t *testing.T) {
	engine, err := redundancy.NewRuleEngine(redundancy.RecoveryRule{
		Name:  "any",
		Match: redundancy.MatchAny(redundancy.MatchComponent("svc")),
		Actions: []redundancy.RecoveryAction{{
			Name: "retry",
			Run:  func(context.Context, *redundancy.Incident) error { return nil },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Handle(context.Background(), &redundancy.Incident{Component: "svc"})
	if err != nil || out.Action != "retry" {
		t.Errorf("= (%+v, %v)", out, err)
	}
}

func TestPublicRobustStructures(t *testing.T) {
	l := redundancy.NewRobustList()
	l.Append(1)
	l.Append(2)
	ids := l.NodeIDs()
	l.CorruptNext(ids[0], 999)
	if len(l.Audit()) == 0 {
		t.Error("corruption undetected")
	}
	if err := l.Repair(); err != nil {
		t.Fatal(err)
	}
	m := redundancy.NewRobustMap()
	m.Put("k", 1)
	m.CorruptPrimary("k", 9)
	if v, err := m.Get("k"); err != nil || v != 1 {
		t.Errorf("= (%d, %v)", v, err)
	}
}

func TestPublicGeneticRepair(t *testing.T) {
	cfg := redundancy.DefaultRepairConfig([]string{"x", "y"})
	cfg.MaxGenerations = 50
	res, err := redundancy.RepairProgram(
		nil, nil, cfg, redundancy.NewRand(1))
	if err == nil {
		t.Error("nil program accepted")
	}
	_ = res
}

func TestPublicWorkarounds(t *testing.T) {
	engine, err := redundancy.NewWorkaroundEngine([]redundancy.RewritingRule{{
		Name:  "noop",
		Match: []string{"x"},
		Replace: func(w []redundancy.WorkaroundOp) []redundancy.WorkaroundOp {
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if engine == nil {
		t.Fatal("nil engine")
	}
}

func TestPublicTaxonomy(t *testing.T) {
	techs := redundancy.Techniques()
	if len(techs) != 17 {
		t.Errorf("techniques = %d, want 17", len(techs))
	}
	nvp, err := redundancy.TechniqueByName("N-version programming")
	if err != nil {
		t.Fatal(err)
	}
	if nvp.Intention != redundancy.Deliberate || nvp.Type != redundancy.CodeRedundancy {
		t.Errorf("NVP classification: %+v", nvp)
	}
	if !strings.Contains(redundancy.Table1().String(), "opportunistic") {
		t.Error("Table 1 rendering broken")
	}
	if !strings.Contains(redundancy.Table2().String(), "Rejuvenation") {
		t.Error("Table 2 rendering broken")
	}
	if !strings.Contains(redundancy.ImplementationTable().String(), "internal/nvp") {
		t.Error("implementation table broken")
	}
}

func TestPublicAnalyticModels(t *testing.T) {
	if r := redundancy.NVersionReliability(3, 0.1); r < 0.97 || r > 0.98 {
		t.Errorf("R(3, 0.1) = %f", r)
	}
	if r := redundancy.NVersionReliabilityCorrelated(3, 0.1, 1); r != 0.9 {
		t.Errorf("correlated R = %f", r)
	}
}

func TestPublicRejuvenation(t *testing.T) {
	cfg := redundancy.CompletionConfig{
		Work:               100,
		CheckpointInterval: 10,
		CheckpointCost:     1,
	}
	total, err := redundancy.SimulateCompletion(cfg, redundancy.NewRand(1))
	if err != nil || total != 110 {
		t.Errorf("= (%f, %v)", total, err)
	}
	mean, err := redundancy.MeanCompletion(cfg, 3, redundancy.NewRand(1))
	if err != nil || mean != 110 {
		t.Errorf("= (%f, %v)", mean, err)
	}
	v := redundancy.NewVariant("id", func(_ context.Context, x int) (int, error) { return x, nil })
	r, err := redundancy.NewRejuvenator(v, redundancy.AgingFault{}, redundancy.NeverRejuvenate{}, redundancy.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(context.Background(), 1); err != nil {
		t.Error(err)
	}
}

func TestPublicOptimizer(t *testing.T) {
	opt, err := redundancy.NewOptimizer(
		[]redundancy.OptimizerProfile[int, int]{{
			Variant: double("impl", 0),
			Latency: func(float64) float64 { return 1 },
		}},
		10, 2, func() float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if got, err := opt.Execute(context.Background(), 2); err != nil || got != 4 {
		t.Errorf("= (%d, %v)", got, err)
	}
}

func TestPublicGuardAndApproxEqual(t *testing.T) {
	crashing := redundancy.NewVariant("crash", func(_ context.Context, _ int) (int, error) {
		panic("boom")
	})
	_, err := redundancy.GuardVariant(crashing).Execute(context.Background(), 1)
	if !errors.Is(err, redundancy.ErrVariantPanicked) {
		t.Errorf("err = %v", err)
	}
	eq := redundancy.ApproxEqual(0.1)
	if !eq(1.0, 1.05) || eq(1.0, 1.2) {
		t.Error("ApproxEqual misbehaves")
	}
}

func TestPublicCompositeProcess(t *testing.T) {
	charge := redundancy.NewVariant("charge", func(_ context.Context, cents int) (int, error) {
		return cents + 1, nil
	})
	retry, err := redundancy.RetryInvoke(charge, 2)
	if err != nil {
		t.Fatal(err)
	}
	priceA := redundancy.NewVariant("a", func(_ context.Context, x int) (int, error) { return x * 2, nil })
	priceB := redundancy.NewVariant("b", func(_ context.Context, x int) (int, error) { return x * 2, nil })
	priceC := redundancy.NewVariant("c", func(_ context.Context, x int) (int, error) { return x * 3, nil })
	voting, err := redundancy.VotingInvoke(redundancy.EqualOf[int](), priceA, priceB, priceC)
	if err != nil {
		t.Fatal(err)
	}
	p, err := redundancy.NewCompositeProcess("order",
		redundancy.ProcessStep[int]{Name: "charge", Invoke: retry},
		redundancy.ProcessStep[int]{Name: "price", Invoke: voting},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Execute(context.Background(), 10)
	if err != nil || got != 22 {
		t.Errorf("= (%d, %v), want (22, nil)", got, err)
	}
}

func TestPublicReexpressionFamilies(t *testing.T) {
	rng := redundancy.NewRand(3)
	tr := redundancy.TranslateInts(5)
	out := tr.Apply([]int{1, 2}, rng)
	if out[1]-out[0] != 1 {
		t.Errorf("translation broke spacing: %v", out)
	}
	pm := redundancy.PermuteInts()
	if got := pm.Apply([]int{1, 2, 3}, rng); len(got) != 3 {
		t.Errorf("permute = %v", got)
	}
	jf := redundancy.JitterFloat(0.01)
	if y := jf.Apply(100, rng); y < 99 || y > 101 {
		t.Errorf("jitter = %f", y)
	}
	fam := redundancy.NewScaleFamily(4)
	_ = fam.Reexpression().Apply(2, rng)
	if fam.LastFactor() != 4 {
		t.Errorf("LastFactor = %f", fam.LastFactor())
	}
}

func TestPublicAvailabilityAlgebra(t *testing.T) {
	a, err := redundancy.SteadyStateAvailability(99*time.Hour, time.Hour)
	if err != nil || a != 0.99 {
		t.Errorf("availability = (%f, %v)", a, err)
	}
	p, err := redundancy.ParallelAvailability(0.9, 0.9)
	if err != nil || p != 0.99 {
		t.Errorf("parallel = (%f, %v)", p, err)
	}
	s, err := redundancy.SeriesAvailability(0.9, 0.9)
	if err != nil || s < 0.8099 || s > 0.8101 {
		t.Errorf("series = (%f, %v)", s, err)
	}
	r, err := redundancy.MajorityReliability(3, 0.9)
	if err != nil || r < 0.97 || r > 0.98 {
		t.Errorf("majority = (%f, %v)", r, err)
	}
	if _, err := redundancy.KOfNReliability(3, 2, 0.9); err != nil {
		t.Error(err)
	}
	d, err := redundancy.DowntimePerYear(0.999)
	if err != nil || d <= 0 {
		t.Errorf("downtime = (%v, %v)", d, err)
	}
	if len(redundancy.TechniquesByIntention(redundancy.Opportunistic)) != 5 {
		t.Error("opportunistic techniques query wrong")
	}
	if len(redundancy.TechniquesByType(redundancy.DataRedundancy)) != 3 {
		t.Error("data-redundancy techniques query wrong")
	}
	if len(redundancy.TechniquesByFaultClass(redundancy.MaliciousFaults)) != 3 {
		t.Error("malicious techniques query wrong")
	}
	if len(redundancy.TechniquesByPattern(redundancy.EnvironmentPattern)) == 0 {
		t.Error("pattern query wrong")
	}
}
