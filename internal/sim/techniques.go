package sim

import (
	"context"
	"errors"
	"fmt"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/datadiv"
	"github.com/softwarefaults/redundancy/internal/geneticfix"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/replica"
	"github.com/softwarefaults/redundancy/internal/robustdata"
	"github.com/softwarefaults/redundancy/internal/service"
	"github.com/softwarefaults/redundancy/internal/stats"
	"github.com/softwarefaults/redundancy/internal/workaround"
	"github.com/softwarefaults/redundancy/internal/wrapper"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// dataDiversityExperiment reproduces the premise of Ammann and Knight's
// data diversity (paper Section 4.2): re-expressing inputs escapes
// input-dependent failure regions, and the escape probability grows with
// the retry budget.
func dataDiversityExperiment() Experiment {
	return Experiment{
		ID:       "datadiversity",
		Index:    "E8",
		Artifact: "Section 4.2 (data diversity)",
		Title:    "Failure-region escape rate vs retry budget",
		Run: func(seed uint64) ([]*stats.Table, error) {
			const (
				domain      = 1000
				regionWidth = 10
				trials      = 4000
			)
			rng := xrand.New(seed)
			// The subject program fails on a contiguous input region; a
			// re-expression perturbs the input by a random shift (an exact
			// re-expression for the constant function the oracle checks).
			regionLo := rng.Intn(domain - regionWidth)
			program := core.NewVariant("region-program",
				func(_ context.Context, x int) (int, error) {
					pos := ((x % domain) + domain) % domain
					if pos >= regionLo && pos < regionLo+regionWidth {
						return 0, errors.New("failure region")
					}
					return 42, nil
				})
			shift := datadiv.Reexpression[int]{
				Name:  "random-shift",
				Apply: func(x int, r *xrand.Rand) int { return x + 1 + r.Intn(domain-1) },
				Exact: true,
			}
			accept := func(_ int, out int) error {
				if out != 42 {
					return core.ErrNotAccepted
				}
				return nil
			}

			table := stats.NewTable(
				"Retry-block success rate on failure-region inputs (region width 10/1000)",
				"retry budget", "success rate", "analytic", "mean attempts")
			for _, budget := range []int{1, 2, 3, 5} {
				c := obs.NewCollector()
				rb, err := datadiv.NewRetryBlock(program, accept,
					[]datadiv.Reexpression[int]{shift}, budget, rng.Split())
				if err != nil {
					return nil, err
				}
				rb.SetObserver(c)
				ok := 0
				for i := 0; i < trials; i++ {
					in := regionLo + rng.Intn(regionWidth) // always inside the region
					if _, err := rb.Execute(context.Background(), in); err == nil {
						ok++
					}
				}
				s := c.Executor("sequential-alternatives")
				// First attempt always fails; each retry escapes with
				// probability 1 - (regionWidth-?)/domain ≈ 1 - w/domain.
				pStay := float64(regionWidth) / float64(domain-1)
				analytic := 0.0
				if budget > 1 {
					analytic = 1 - pow(pStay, budget-1)
				}
				table.AddRow(budget, float64(ok)/trials, analytic, s.ExecutionsPerRequest())
			}

			// N-copy programming over the same region.
			ncopyTable := stats.NewTable(
				"N-copy programming success rate on failure-region inputs",
				"copies", "success rate")
			for _, n := range []int{2, 3, 5} {
				nc, err := datadiv.NewNCopy(program,
					[]datadiv.Reexpression[int]{shift}, n,
					adjFirstOK(), rng.Split())
				if err != nil {
					return nil, err
				}
				ok := 0
				for i := 0; i < trials; i++ {
					in := regionLo + rng.Intn(regionWidth)
					if _, err := nc.Execute(context.Background(), in); err == nil {
						ok++
					}
				}
				ncopyTable.AddRow(n, float64(ok)/trials)
			}
			return []*stats.Table{table, ncopyTable}, nil
		},
	}
}

// adjFirstOK accepts the first successful copy (the program is
// deterministic and exact re-expressions preserve the output, so any
// successful copy is correct).
func adjFirstOK() core.Adjudicator[int] {
	return core.AdjudicatorFunc[int](func(results []core.Result[int]) (int, error) {
		for _, r := range results {
			if r.OK() {
				return r.Value, nil
			}
		}
		return 0, core.ErrAllVariantsFailed
	})
}

func pow(b float64, e int) float64 {
	out := 1.0
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// nvariantExperiment reproduces the security claims of process replicas
// (Cox et al.) and N-variant data diversity (Nguyen-Tuong et al.):
// attack detection rates per payload type, with zero false positives on
// benign workloads.
func nvariantExperiment() Experiment {
	return Experiment{
		ID:       "nvariant",
		Index:    "E10",
		Artifact: "Section 4.3 (process replicas) and 4.2 (data diversity for security)",
		Title:    "Attack detection by replica divergence and data-variant comparison",
		Run: func(seed uint64) ([]*stats.Table, error) {
			const requests = 3000
			rng := xrand.New(seed)
			sys, err := replica.NewSystem(3, 1<<16)
			if err != nil {
				return nil, err
			}
			table := stats.NewTable(
				"Process replicas (3 variants): outcome per request type (3000 each)",
				"request type", "served", "detected (divergence)", "trapped (unanimous)", "undetected compromise")
			// Benign mix.
			served, det, trap, bad := 0, 0, 0, 0
			for i := 0; i < requests; i++ {
				_, err := sys.Execute(replica.Request{Op: replica.OpWrite, Addr: uint64(rng.Intn(1000)), Value: uint64(i)})
				classify(err, &served, &det, &trap, &bad)
			}
			table.AddRow("benign read/write", served, det, trap, bad)

			served, det, trap, bad = 0, 0, 0, 0
			for i := 0; i < requests; i++ {
				target := sys.Process(rng.Intn(sys.N())).Base() + uint64(rng.Intn(1000))
				_, err := sys.Execute(replica.Request{Op: replica.OpWrite, Addr: target, Absolute: true, Value: 0xbad})
				classify(err, &served, &det, &trap, &bad)
			}
			table.AddRow("absolute-address attack", served, det, trap, bad)

			served, det, trap, bad = 0, 0, 0, 0
			for i := 0; i < requests; i++ {
				tag := byte(0)
				if rng.Bool(0.8) { // attacker usually guesses some variant's tag
					tag = sys.Process(rng.Intn(sys.N())).Tag()
				}
				_, err := sys.Execute(replica.Request{Op: replica.OpExec,
					Code: []replica.Instruction{{Tag: tag, Op: "shellcode"}}})
				classify(err, &served, &det, &trap, &bad)
			}
			table.AddRow("code-injection attack", served, det, trap, bad)

			// N-variant data cells under uniform corruption.
			cellTable := stats.NewTable(
				"N-variant data (uniform corruption of all variants, 3000 trials)",
				"variants", "detected", "undetected")
			for _, n := range []int{2, 3} {
				cell, err := datadiv.NewNVariantCell(n, rng.Split())
				if err != nil {
					return nil, err
				}
				detected, undetected := 0, 0
				for i := 0; i < requests; i++ {
					cell.Set(uint64(i))
					cell.CorruptUniform(rng.Uint64())
					if _, err := cell.Get(); err != nil {
						detected++
					} else {
						undetected++
					}
				}
				cellTable.AddRow(n, detected, undetected)
			}
			return []*stats.Table{table, cellTable}, nil
		},
	}
}

func classify(err error, served, det, trap, bad *int) {
	switch {
	case err == nil:
		*served++
	case errors.Is(err, replica.ErrAttackDetected):
		*det++
	case errors.Is(err, replica.ErrSegfault), errors.Is(err, replica.ErrIllegalInstruction):
		*trap++
	default:
		*bad++
	}
}

// workaroundExperiment reproduces the premise of automatic workarounds
// (paper Section 5.1): the fraction of failures avoided grows with the
// number of known rewriting rules (the amount of intrinsic redundancy the
// engine can exploit).
func workaroundExperiment() Experiment {
	return Experiment{
		ID:       "workarounds",
		Index:    "E11",
		Artifact: "Section 5.1 (automatic workarounds)",
		Title:    "Failures healed vs rewriting-rule budget",
		Run: func(seed uint64) ([]*stats.Table, error) {
			rng := xrand.New(seed)
			allRules := workaround.IntSetRules()
			ruleSets := []struct {
				name  string
				rules []workaround.Rule
			}{
				{"split only", allRules[:1]},
				{"split + expand", allRules[:2]},
				{"all three rules", allRules},
			}
			const trials = 500
			table := stats.NewTable(
				"Automatic workarounds: healed failing sequences (500 per cell)",
				"rule set", "bug span 2", "bug span 3", "mean candidates tried")
			for _, rs := range ruleSets {
				row := make([]any, 0, 4)
				row = append(row, rs.name)
				totalTried := 0
				attempts := 0
				for _, bugSpan := range []int{2, 3} {
					engine, err := workaround.NewEngine(rs.rules)
					if err != nil {
						return nil, err
					}
					healed := 0
					for i := 0; i < trials; i++ {
						lo := rng.Intn(50)
						span := bugSpan + rng.Intn(4) // always wide enough to trigger the bug
						hi := lo + span
						set := workaround.NewIntSet(bugSpan)
						out, err := engine.Execute(context.Background(), set,
							workaround.Sequence{{Name: "addrange", Args: []int{lo, hi}}},
							workaround.RangeOracle(lo, hi))
						if err == nil && out.WorkedAround {
							healed++
						}
						totalTried += out.Tried
						attempts++
					}
					row = append(row, float64(healed)/trials)
				}
				row = append(row, float64(totalTried)/float64(attempts))
				table.AddRow(row...)
			}
			return []*stats.Table{table}, nil
		},
	}
}

// geneticFixExperiment reproduces the fault-fixing results of Weimer et
// al. and Arcuri-Yao (paper Section 5.1): repair success rate and
// generations needed per seeded fault kind.
func geneticFixExperiment() Experiment {
	return Experiment{
		ID:       "geneticfix",
		Index:    "E12",
		Artifact: "Section 5.1 (fault fixing with genetic programming)",
		Title:    "GP repair rate and generations per fault kind",
		Run: func(seed uint64) ([]*stats.Table, error) {
			sumSuite := []geneticfix.TestCase{
				{Vars: map[string]int{"x": 1, "y": 2}, Want: 3},
				{Vars: map[string]int{"x": 5, "y": 5}, Want: 10},
				{Vars: map[string]int{"x": -2, "y": 7}, Want: 5},
				{Vars: map[string]int{"x": 0, "y": 0}, Want: 0},
				{Vars: map[string]int{"x": 10, "y": -10}, Want: 0},
			}
			faults := []struct {
				name  string
				prog  geneticfix.Node
				suite []geneticfix.TestCase
			}{
				{"swapped branches (max)", geneticfix.FaultyMax(), geneticfix.MaxSuite()},
				{"wrong operator (sum as sub)",
					&geneticfix.Bin{Op: geneticfix.OpSub, L: geneticfix.Var{Name: "x"}, R: geneticfix.Var{Name: "y"}},
					sumSuite},
				{"wrong constant (x+2 instead of x+1)",
					&geneticfix.Bin{Op: geneticfix.OpAdd, L: geneticfix.Var{Name: "x"}, R: geneticfix.Const{Value: 2}},
					[]geneticfix.TestCase{
						{Vars: map[string]int{"x": 0}, Want: 1},
						{Vars: map[string]int{"x": 5}, Want: 6},
						{Vars: map[string]int{"x": -3}, Want: -2},
					}},
			}
			const runs = 20
			table := stats.NewTable(
				"GP repair over 20 random seeds per fault (pop 64, <=100 generations)",
				"seeded fault", "repair rate", "mean generations (successful runs)")
			for _, f := range faults {
				cfg := geneticfix.DefaultConfig([]string{"x", "y"})
				repaired, genSum := 0, 0
				for r := 0; r < runs; r++ {
					res, err := geneticfix.Repair(f.prog, f.suite, cfg, xrand.New(seed+uint64(r)))
					if err != nil {
						return nil, err
					}
					if res.Repaired {
						repaired++
						genSum += res.Generations
					}
				}
				meanGen := 0.0
				if repaired > 0 {
					meanGen = float64(genSum) / float64(repaired)
				}
				table.AddRow(f.name, float64(repaired)/runs, meanGen)
			}
			return []*stats.Table{table}, nil
		},
	}
}

// substitutionExperiment reproduces the availability argument for dynamic
// service substitution (paper Section 5.1): a composite application bound
// to a single provider versus one that transparently substitutes among
// the available implementations.
func substitutionExperiment() Experiment {
	return Experiment{
		ID:       "substitution",
		Index:    "E13",
		Artifact: "Section 5.1 (dynamic service substitution)",
		Title:    "Availability with and without substitution",
		Run: func(seed uint64) ([]*stats.Table, error) {
			const requests = 10000
			sig := service.Signature{Name: "stock", Ops: []string{"get"}}
			table := stats.NewTable(
				"Availability over 10000 requests, 3 providers",
				"per-provider failure prob", "single binding", "with substitution", "substitutions")
			for _, p := range []float64{0.05, 0.2, 0.5} {
				rng := xrand.New(seed)
				mk := func(name string) (*service.SimService, error) {
					s, err := service.NewSimService(name, sig, map[string]func(int) (int, error){
						"get": func(x int) (int, error) { return x, nil },
					})
					if err != nil {
						return nil, err
					}
					s.SetFlaky(p, rng.Split())
					return s, nil
				}
				s1, err := mk("provider-1")
				if err != nil {
					return nil, err
				}
				s2, err := mk("provider-2")
				if err != nil {
					return nil, err
				}
				s3, err := mk("provider-3")
				if err != nil {
					return nil, err
				}

				// Single binding: always provider-1.
				okSingle := 0
				for i := 0; i < requests; i++ {
					if _, err := s1.Invoke(context.Background(), "get", i); err == nil {
						okSingle++
					}
				}

				reg := service.NewRegistry()
				for _, s := range []*service.SimService{s1, s2, s3} {
					if err := reg.Register(s, nil); err != nil {
						return nil, err
					}
				}
				proxy, err := service.NewProxy(reg, sig, 0.5)
				if err != nil {
					return nil, err
				}
				okProxy := 0
				for i := 0; i < requests; i++ {
					if _, err := proxy.Invoke(context.Background(), "get", i); err == nil {
						okProxy++
					}
				}
				table.AddRow(p, float64(okSingle)/requests, float64(okProxy)/requests, proxy.Substitutions)
			}
			return []*stats.Table{table}, nil
		},
	}
}

// robustDataExperiment reproduces the detection/repair coverage of robust
// data structures and audits (paper Section 4.2, Taylor et al.).
func robustDataExperiment() Experiment {
	return Experiment{
		ID:       "robustdata",
		Index:    "E15",
		Artifact: "Section 4.2 (robust data structures, audits)",
		Title:    "Detection and repair coverage per corruption kind",
		Run: func(seed uint64) ([]*stats.Table, error) {
			const trials = 2000
			rng := xrand.New(seed)
			table := stats.NewTable(
				"Robust list: single corruptions (2000 each)",
				"corruption", "detected", "repaired", "value-intact after repair")
			kinds := []string{"next->garbage", "prev->garbage", "next->valid-skip", "count drift"}
			for _, kind := range kinds {
				detected, repaired, intact := 0, 0, 0
				for i := 0; i < trials; i++ {
					size := 3 + rng.Intn(8)
					l := robustdata.NewRobustList()
					for v := 0; v < size; v++ {
						l.Append(v)
					}
					ids := l.NodeIDs()
					target := ids[rng.Intn(len(ids))]
					switch kind {
					case "next->garbage":
						l.CorruptNext(target, 10_000+rng.Intn(1000))
					case "prev->garbage":
						l.CorruptPrev(target, 10_000+rng.Intn(1000))
					case "next->valid-skip":
						l.CorruptNext(ids[0], ids[len(ids)-1])
					case "count drift":
						l.CorruptCount(1 + rng.Intn(5))
					}
					if len(l.Audit()) > 0 {
						detected++
					}
					if err := l.Repair(); err == nil {
						repaired++
						if vals, err := l.Values(); err == nil && len(vals) == size {
							good := true
							for v := 0; v < size; v++ {
								if vals[v] != v {
									good = false
									break
								}
							}
							if good {
								intact++
							}
						}
					}
				}
				table.AddRow(kind, float64(detected)/trials, float64(repaired)/trials, float64(intact)/trials)
			}

			mapTable := stats.NewTable(
				"Robust map: checksummed shadow copies (2000 each)",
				"corruption", "reads served correctly", "unrepairable")
			for _, kind := range []string{"primary only", "both copies"} {
				okReads, lost := 0, 0
				for i := 0; i < trials; i++ {
					m := robustdata.NewRobustMap()
					m.Put("k", i)
					m.CorruptPrimary("k", i+999)
					if kind == "both copies" {
						m.CorruptShadow("k", i+998)
					}
					v, err := m.Get("k")
					switch {
					case err == nil && v == i:
						okReads++
					case errors.Is(err, robustdata.ErrUnrepairable):
						lost++
					}
				}
				mapTable.AddRow(kind, float64(okReads)/trials, float64(lost)/trials)
			}

			// Periodic software audits (Connet et al.): the audit period
			// trades overhead against the window during which a
			// corruption sits undetected.
			auditTable := stats.NewTable(
				"Periodic software audits: detection latency vs audit period (500 corruptions each)",
				"audit period (ops)", "mean detection latency (ops)", "audits per 1000 ops")
			for _, period := range []int{1, 10, 50} {
				const runs = 500
				totalLatency := 0
				totalAudits := 0
				totalOps := 0
				for run := 0; run < runs; run++ {
					l := robustdata.NewRobustList()
					for v := 0; v < 6; v++ {
						l.Append(v)
					}
					sched, err := robustdata.NewAuditScheduler(robustdata.AsAuditable(l), period)
					if err != nil {
						return nil, err
					}
					corruptAt := rng.Intn(100)
					corrupted := false
					for op := 0; op < 200; op++ {
						totalOps++
						if op == corruptAt {
							ids := l.NodeIDs()
							l.CorruptNext(ids[rng.Intn(len(ids))], 100000+op)
							corrupted = true
						}
						audited, err := sched.Tick()
						if err != nil {
							return nil, err
						}
						if audited && corrupted && sched.Repairs > 0 {
							totalLatency += op - corruptAt
							corrupted = false
						}
					}
					totalAudits += sched.Audits
				}
				auditTable.AddRow(period,
					float64(totalLatency)/runs,
					float64(totalAudits)/float64(totalOps)*1000)
			}
			return []*stats.Table{table, mapTable, auditTable}, nil
		},
	}
}

// wrapperExperiment reproduces the prevention claims of wrappers (paper
// Section 4.1): boundary-check healers prevent heap smashing, and
// protocol wrappers keep COTS components alive under misuse.
func wrapperExperiment() Experiment {
	return Experiment{
		ID:       "wrappers",
		Index:    "E16",
		Artifact: "Section 4.1 (wrappers, healers)",
		Title:    "Overflow and misuse prevention rates",
		Run: func(seed uint64) ([]*stats.Table, error) {
			const trials = 2000
			rng := xrand.New(seed)
			table := stats.NewTable(
				"Heap overflow workload (2000 write bursts, 20% overflowing)",
				"write path", "blocks smashed", "overflows prevented")
			for _, guarded := range []bool{false, true} {
				smashed, prevented := 0, 0
				for i := 0; i < trials; i++ {
					h, err := wrapper.NewHeap(1 << 12)
					if err != nil {
						return nil, err
					}
					var blocks []wrapper.Handle
					for b := 0; b < 8; b++ {
						blk, err := h.Alloc(16)
						if err != nil {
							return nil, err
						}
						blocks = append(blocks, blk)
					}
					healer, err := wrapper.NewHealer(h, wrapper.Reject)
					if err != nil {
						return nil, err
					}
					for w := 0; w < 10; w++ {
						blk := blocks[rng.Intn(len(blocks))]
						size := 8
						if rng.Bool(0.2) {
							size = 16 + rng.Intn(48) // overflowing write
						}
						data := make([]byte, size)
						if guarded {
							_ = healer.Write(blk, 0, data)
						} else {
							_ = h.RawWrite(blk, 0, data)
						}
					}
					smashed += len(h.CheckIntegrity())
					prevented += healer.Prevented
				}
				name := "raw (unwrapped)"
				if guarded {
					name = "healer (boundary checks)"
				}
				table.AddRow(name, smashed, prevented)
			}

			protoTable := stats.NewTable(
				"COTS protocol misuse (2000 random call sequences of length 8)",
				"mediation", "components broken", "misuses repaired")
			for _, wrapped := range []bool{false, true} {
				broken, repairs := 0, 0
				for i := 0; i < trials; i++ {
					res := wrapper.NewCOTSResource()
					w, err := wrapper.NewProtocolWrapper(res)
					if err != nil {
						return nil, err
					}
					for c := 0; c < 8; c++ {
						var errCall error
						switch rng.Intn(3) {
						case 0:
							if wrapped {
								errCall = w.Open()
							} else {
								errCall = res.Open()
							}
						case 1:
							if wrapped {
								errCall = w.Use()
							} else {
								errCall = res.Use()
							}
						default:
							if wrapped {
								errCall = w.Close()
							} else {
								errCall = res.Close()
							}
						}
						_ = errCall
					}
					if res.State() == wrapper.StateBroken {
						broken++
					}
					repairs += w.Repairs
				}
				name := "direct calls"
				if wrapped {
					name = "protocol wrapper"
				}
				protoTable.AddRow(name, broken, repairs)
			}
			return []*stats.Table{table, protoTable}, nil
		},
	}
}

// selfOptExperiment reproduces the self-optimization scenario (paper
// Section 4.1, Diaconescu et al.): under a shifting load, a framework
// that switches among implementations maintains the QoS that any fixed
// implementation violates.
func selfOptExperiment() Experiment {
	return Experiment{
		ID:       "selfopt",
		Index:    "E17",
		Artifact: "Section 4.1 (self-optimizing code)",
		Title:    "QoS under load shifts: fixed implementations vs self-optimization",
		Run: func(seed uint64) ([]*stats.Table, error) {
			// Load trace: calm, then a load spike, then calm again.
			const phase = 400
			loadAt := func(step int) float64 {
				switch {
				case step < phase:
					return 0.1
				case step < 2*phase:
					return 0.9
				default:
					return 0.1
				}
			}
			latencies := map[string]func(float64) float64{
				"light": func(load float64) float64 { return 1 + 20*load },
				"heavy": func(load float64) float64 { return 6 },
			}
			const threshold = 8.0
			table := stats.NewTable(
				"Mean latency and QoS violations over a 1200-step load trace (threshold 8)",
				"strategy", "mean latency", "violations", "switches")
			// Fixed strategies.
			for _, name := range []string{"light", "heavy"} {
				lat := latencies[name]
				var sum float64
				violations := 0
				for step := 0; step < 3*phase; step++ {
					l := lat(loadAt(step))
					sum += l
					if l > threshold {
						violations++
					}
				}
				table.AddRow("fixed "+name, sum/float64(3*phase), violations, 0)
			}
			// Self-optimizing strategy via the real optimizer.
			step := 0
			probe := func() float64 { return loadAt(step) }
			profiles := []selfoptProfile{
				{name: "light", lat: latencies["light"]},
				{name: "heavy", lat: latencies["heavy"]},
			}
			opt, err := buildOptimizer(profiles, threshold, 3, probe)
			if err != nil {
				return nil, err
			}
			var sum float64
			violations := 0
			for ; step < 3*phase; step++ {
				if _, err := opt.Execute(context.Background(), step); err != nil {
					return nil, err
				}
				sum += opt.LastLatency
				if opt.LastLatency > threshold {
					violations++
				}
			}
			table.AddRow("self-optimizing", sum/float64(3*phase), violations, opt.Switches)
			_ = seed
			return []*stats.Table{table}, nil
		},
	}
}

// costsExperiment reproduces the paper's Section 4.1 discussion "Costs
// and efficacy of code redundancy": N-version programming pays n
// executions per request for an inexpensive implicit adjudicator;
// recovery blocks pay ~1 execution per request but need explicit
// acceptance tests; self-checking programming sits in between with hot
// spares.
func costsExperiment() Experiment {
	return Experiment{
		ID:       "costs",
		Index:    "E14",
		Artifact: "Section 4.1 (costs and efficacy of code redundancy)",
		Title:    "NVP vs recovery blocks vs self-checking: reliability and execution cost",
		Run:      runCostsExperiment,
	}
}

// selfoptProfile and buildOptimizer adapt the selfopt generics for use in
// this package without repeating type arguments at every call site.
type selfoptProfile struct {
	name string
	lat  func(float64) float64
}

// errNoProfiles guards buildOptimizer inputs.
var errNoProfiles = fmt.Errorf("sim: no profiles")
