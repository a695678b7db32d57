package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
)

// --- ULID ---

func TestULIDRoundTrip(t *testing.T) {
	at := time.UnixMilli(1723200000123)
	id := MakeULID(at, [10]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if len(id) != ULIDLen {
		t.Fatalf("len = %d, want %d", len(id), ULIDLen)
	}
	if err := ValidateULID(id); err != nil {
		t.Fatalf("ValidateULID: %v", err)
	}
	got, err := ULIDTime(id)
	if err != nil {
		t.Fatalf("ULIDTime: %v", err)
	}
	if got.UnixMilli() != at.UnixMilli() {
		t.Fatalf("time = %v, want %v", got.UnixMilli(), at.UnixMilli())
	}
}

func TestULIDLexicographicIsChronological(t *testing.T) {
	ids := []string{
		MakeULID(time.UnixMilli(1000), [10]byte{0xff}),
		MakeULID(time.UnixMilli(2000), [10]byte{0x00}),
		MakeULID(time.UnixMilli(2001), [10]byte{0x80}),
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("ULIDs not sorted by time: %v", ids)
	}
}

func TestULIDMonotonicSameMillisecond(t *testing.T) {
	at := time.UnixMilli(1723200000123)
	a := newULIDAt(at)
	b := newULIDAt(at)
	c := newULIDAt(at.Add(-time.Second)) // clock rewind
	if !(a < b && b < c) {
		t.Fatalf("same-ms ULIDs not monotonic: %q %q %q", a, b, c)
	}
}

// FuzzValidateULID: the run-ID validator never panics, and an ID it
// accepts also yields its timestamp, a millisecond count of at most 48
// bits.
func FuzzValidateULID(f *testing.F) {
	for _, id := range []string{
		MakeULID(time.UnixMilli(1723200000123), [10]byte{1, 2, 3}),
		"", "SHORT", "8ZZZZZZZZZZZZZZZZZZZZZZZZZ", "7ZZZZZZZZZZZZZZZZZZZZZZZZZ",
		"01ARZ3NDEKTSV4RRFFQ69G5FA!", "01arz3ndektsv4rrffq69g5fav", "0000000000000000000000000\xff",
	} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if ValidateULID(id) != nil {
			return
		}
		at, err := ULIDTime(id)
		if err != nil {
			t.Fatalf("ValidateULID accepted %q, but ULIDTime fails: %v", id, err)
		}
		if ms := at.UnixMilli(); ms < 0 || ms >= 1<<48 {
			t.Fatalf("ULIDTime(%q) = %d ms, beyond 48 bits", id, ms)
		}
	})
}

func TestValidateULIDRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"SHORT",
		"8ZZZZZZZZZZZZZZZZZZZZZZZZZ", // first char > 7 overflows 128 bits
		"01ARZ3NDEKTSV4RRFFQ69G5FA!", // bad character
	} {
		if err := ValidateULID(bad); !errors.Is(err, ErrBadULID) {
			t.Errorf("ValidateULID(%q) = %v, want ErrBadULID", bad, err)
		}
	}
	// Crockford aliases decode: o->0, l->1.
	ok := "01arz3ndektsv4rrffq69g5fav"
	if err := ValidateULID(ok); err != nil {
		t.Errorf("lowercase ULID rejected: %v", err)
	}
}

// --- store ---

func testSpec() *Spec {
	return &Spec{
		Name:    "unit",
		Mode:    "sim",
		Pattern: "sequential",
		N:       []int{2},
		P:       []float64{0.3},
		Trials:  40,
		Seeds:   []uint64{1, 2},
		Workers: 2,
		Observe: true,
	}
}

func mustExecute(t *testing.T, spec *Spec) *Run {
	t.Helper()
	run, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return run
}

func TestStoreSaveLoadResolve(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	run := mustExecute(t, testSpec())
	id, err := st.Save(run)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := ValidateULID(id); err != nil {
		t.Fatalf("Save assigned bad ULID: %v", err)
	}
	got, err := st.Load(id)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.ID != id || len(got.Points) != 1 || got.Name != "unit" {
		t.Fatalf("Load round-trip mismatch: %+v", got)
	}
	// Prefix resolution, case-insensitive.
	rid, err := st.Resolve(id[:8])
	if err != nil || rid != id {
		t.Fatalf("Resolve(%q) = %q, %v", id[:8], rid, err)
	}
	if _, err := st.Resolve("zzzz"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("Resolve miss = %v, want ErrRunNotFound", err)
	}
	sums, err := st.List()
	if err != nil || len(sums) != 1 {
		t.Fatalf("List = %v, %v", sums, err)
	}
	if sums[0].Trials != 2*40 {
		t.Fatalf("summary trials = %d, want 80", sums[0].Trials)
	}
}

func TestStoreResolveAmbiguous(t *testing.T) {
	st, _ := Open(t.TempDir())
	r1 := mustExecute(t, testSpec())
	r2 := mustExecute(t, testSpec())
	id1, _ := st.Save(r1)
	if _, err := st.Save(r2); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// The shared timestamp prefix is ambiguous.
	if _, err := st.Resolve(id1[:2]); !errors.Is(err, ErrAmbiguousRun) {
		t.Fatalf("Resolve(ambiguous) = %v, want ErrAmbiguousRun", err)
	}
}

func TestReadRunFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := ReadRunFile(path); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("ReadRunFile(corrupt) = %v, want ErrCorruptRun", err)
	}
}

// --- execute / determinism ---

func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	spec1 := testSpec()
	spec1.Workers = 1
	spec2 := testSpec()
	spec2.Workers = 4
	a := mustExecute(t, spec1)
	b := mustExecute(t, spec2)
	for pi := range a.Points {
		for si := range a.Points[pi].Seeds {
			da := a.Points[pi].Seeds[si].DeterministicDigest()
			db := b.Points[pi].Seeds[si].DeterministicDigest()
			if !bytes.Equal(da, db) {
				t.Fatalf("point %d seed %d digests differ across worker counts", pi, si)
			}
		}
	}
}

func TestExecuteGridShape(t *testing.T) {
	spec := testSpec()
	spec.N = []int{1, 3}
	spec.P = []float64{0.1, 0.5}
	run := mustExecute(t, spec)
	if len(run.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2x2 grid)", len(run.Points))
	}
	keys := map[string]bool{}
	for _, p := range run.Points {
		keys[p.Config.Key()] = true
		if len(p.Seeds) != 2 {
			t.Fatalf("seeds = %d, want 2", len(p.Seeds))
		}
		if p.Pooled.Deterministic.Trials != 80 {
			t.Fatalf("pooled trials = %d, want 80", p.Pooled.Deterministic.Trials)
		}
	}
	if len(keys) != 4 {
		t.Fatalf("duplicate point keys: %v", keys)
	}
}

func TestSequentialMasksFailures(t *testing.T) {
	// n=3 redundancy over p=0.3 variants should mask most failures:
	// availability well above single-variant 0.7.
	spec := testSpec()
	spec.N = []int{3}
	spec.Trials = 200
	run := mustExecute(t, spec)
	avail := run.Availability()
	if avail < 0.95 {
		t.Fatalf("sequential n=3 availability = %v, want >= 0.95", avail)
	}
	// Injected trials were detected: spy saw the variant failures.
	d := run.Points[0].Pooled.Deterministic
	if d.InjectedTrials == 0 || d.TPR == 0 {
		t.Fatalf("no injection/detection recorded: %+v", d)
	}
}

func TestBohrVariantFailsDeterministically(t *testing.T) {
	spec := testSpec()
	spec.Pattern = "single"
	spec.N = []int{1}
	spec.P = []float64{0}
	spec.Bohr = 1
	spec.Trials = 10
	run := mustExecute(t, spec)
	d := run.Points[0].Pooled.Deterministic
	if d.Outcomes[OutcomeFailed] != 20 { // 10 trials x 2 seeds
		t.Fatalf("bohr outcomes = %+v, want all failed", d.Outcomes)
	}
	if d.FaultsInjected["bohr"] == 0 || d.TPR != 1 {
		t.Fatalf("bohr ground truth missing: %+v", d)
	}
}

func TestNVPMode(t *testing.T) {
	spec := &Spec{
		Mode: "sim", Pattern: "nvp",
		N: []int{3}, P: []float64{0.2},
		Trials: 100, Seeds: []uint64{7},
	}
	run := mustExecute(t, spec)
	avail := run.Availability()
	if avail <= 0.8 || avail > 1 {
		t.Fatalf("nvp availability = %v, want masking above single-version 0.8", avail)
	}
}

func chaosSpec() *Spec {
	return &Spec{
		Name:  "chaos-unit",
		Mode:  "chaos",
		N:     []int{2},
		Seeds: []uint64{11, 12},
		Chaos: &faultmodel.Campaign{
			Name: "unit",
			Phases: []faultmodel.ChaosPhase{
				{Name: "calm", Requests: 20},
				{Name: "burst", Requests: 30, ErrorBurst: 0.5},
			},
		},
	}
}

func TestChaosModeGroundTruth(t *testing.T) {
	run := mustExecute(t, chaosSpec())
	p := run.Points[0]
	if p.Config.Trials != 50 {
		t.Fatalf("chaos trials = %d, want schedule total 50", p.Config.Trials)
	}
	d := p.Pooled.Deterministic
	if d.FaultsInjected["error"] == 0 {
		t.Fatalf("no error disturbances recorded: %+v", d)
	}
	if d.InjectedTrials == 0 || d.InjectedTrials >= d.Trials {
		t.Fatalf("injected trials = %d of %d, want strict subset", d.InjectedTrials, d.Trials)
	}
	// The first 20 requests of every seed are the calm phase: clean rows.
	for _, s := range p.Seeds {
		for _, tr := range s.Trials[:20] {
			if tr.Fault != "" {
				t.Fatalf("calm-phase trial %d has fault %q", tr.Index, tr.Fault)
			}
		}
	}
}

func TestChaosExecutorBlockBuildsPolicyStack(t *testing.T) {
	// v1 always fails, so its breaker opens; the overload phase keeps 32
	// requests in flight against a bulkhead admitting 2, so it sheds.
	cfg := Config{
		Mode: "chaos", Pattern: "sequential", Variants: 2, Bohr: 1, Seed: 3,
		Chaos: &faultmodel.Campaign{Name: "policies", Phases: []faultmodel.ChaosPhase{
			{Name: "calm", Requests: 20},
			{Name: "overload", Requests: 64, Concurrency: 32, LatencySpike: 1,
				SpikeDelay: faultmodel.Duration(5 * time.Millisecond)},
		}},
		Executor: ExecutorConfig{
			BreakerConsecutiveFailures: 3,
			BreakerOpenFor:             faultmodel.Duration(time.Minute),
			BulkheadMaxConcurrent:      2,
		},
	}
	collector := obs.NewCollector()
	res, rep, err := RunSeed(context.Background(), cfg, collector, nil)
	if err != nil {
		t.Fatalf("RunSeed: %v", err)
	}
	var opens int64
	for _, e := range collector.Snapshot() {
		opens += e.BreakerOpens
	}
	if opens == 0 {
		t.Error("no breaker opened on the Bohr variant")
	}
	if rep == nil || len(rep.Phases) != 2 || rep.Phases[1].Shed == 0 {
		t.Fatalf("overload phase shed nothing: %+v", rep)
	}
	if got := res.Aggregates.Deterministic.Outcomes[OutcomeShed]; got != rep.Phases[1].Shed {
		t.Errorf("trial rows book %d shed requests, the phase report %d", got, rep.Phases[1].Shed)
	}
}

// peakInflight records the most requests an executor held at once.
type peakInflight struct {
	obs.Nop
	mu        sync.Mutex
	now, peak int
}

func (o *peakInflight) RequestStart(string, uint64) {
	o.mu.Lock()
	o.now++
	o.peak = max(o.peak, o.now)
	o.mu.Unlock()
}

func (o *peakInflight) RequestEnd(string, uint64, time.Duration, obs.Outcome) {
	o.mu.Lock()
	o.now--
	o.mu.Unlock()
}

func TestChaosPhaseRunsAtItsConcurrency(t *testing.T) {
	sched := &faultmodel.Campaign{Name: "crowd", Phases: []faultmodel.ChaosPhase{
		{Name: "calm", Requests: 10},
		{Name: "crowd", Requests: 40, Concurrency: 8, ErrorBurst: 0.4, LatencySpike: 1,
			SpikeDelay: faultmodel.Duration(2 * time.Millisecond)},
	}}
	peak := &peakInflight{}
	cfg := Config{Mode: "chaos", Pattern: "sequential", Variants: 2, Seed: 5, Chaos: sched}
	if _, _, err := RunSeed(context.Background(), cfg, peak, nil); err != nil {
		t.Fatalf("RunSeed: %v", err)
	}
	if peak.peak < 2 {
		t.Errorf("peak in-flight requests = %d, want > 1 at Concurrency 8", peak.peak)
	}

	// Without an executor block the overlapped phase is still
	// deterministic: every row is a pure function of its request index.
	run := mustExecute(t, &Spec{Name: "crowd", Mode: "chaos", N: []int{2}, Seeds: []uint64{5, 6}, Chaos: sched})
	rep, err := Replay(context.Background(), run, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Mismatched != 0 || rep.Matched != 2 {
		t.Fatalf("replay matched=%d mismatched=%d: %+v", rep.Matched, rep.Mismatched, rep.Points)
	}
}

// --- replay ---

func TestReplayByteIdentical(t *testing.T) {
	for _, spec := range []*Spec{testSpec(), chaosSpec()} {
		run := mustExecute(t, spec)
		rep, err := Replay(context.Background(), run, nil)
		if err != nil {
			t.Fatalf("%s: Replay: %v", spec.Name, err)
		}
		if rep.Mismatched != 0 || rep.Err() != nil {
			t.Fatalf("%s: replay mismatched: %+v", spec.Name, rep)
		}
		if rep.Matched == 0 {
			t.Fatalf("%s: replay matched nothing", spec.Name)
		}
	}
}

func TestReplaySurvivesStoreRoundTrip(t *testing.T) {
	st, _ := Open(t.TempDir())
	id, err := st.Save(mustExecute(t, testSpec()))
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := st.Load(id)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := Replay(context.Background(), loaded, nil)
	if err != nil || rep.Err() != nil {
		t.Fatalf("replay of decoded run: %v / %v", err, rep.Err())
	}
}

func TestReplayAggregatesOnlyWhenTrialsDropped(t *testing.T) {
	spec := testSpec()
	spec.DropTrials = true
	run := mustExecute(t, spec)
	if len(run.Points[0].Seeds[0].Trials) != 0 {
		t.Fatal("DropTrials kept trial rows")
	}
	rep, err := Replay(context.Background(), run, nil)
	if err != nil || rep.Err() != nil {
		t.Fatalf("aggregates-only replay: %v / %v", err, rep.Err())
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	run := mustExecute(t, testSpec())
	// Corrupt one stored trial outcome.
	s := &run.Points[0].Seeds[0]
	for i := range s.Trials {
		if s.Trials[i].Outcome == OutcomeOK {
			s.Trials[i].Outcome = OutcomeFailed
			break
		}
	}
	rep, err := Replay(context.Background(), run, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Mismatched == 0 || !errors.Is(rep.Err(), ErrReplayMismatch) {
		t.Fatalf("tampered run replayed clean: %+v", rep)
	}
}

func TestReplayNotReplayable(t *testing.T) {
	run := mustExecute(t, testSpec())
	for i := range run.Points {
		run.Points[i].Config.Pattern = "selection"
	}
	if _, err := Replay(context.Background(), run, nil); !errors.Is(err, ErrNotReplayable) {
		t.Fatalf("Replay(selection-only) = %v, want ErrNotReplayable", err)
	}
}

// --- diff ---

func TestDiffIdenticalRunsClean(t *testing.T) {
	run := mustExecute(t, testSpec())
	rep := Diff(run, run, DiffOptions{})
	if rep.Regressed() || rep.Significant != 0 {
		t.Fatalf("self-diff not clean: %+v", rep)
	}
}

func TestDiffFlagsAvailabilityRegression(t *testing.T) {
	base := mustExecute(t, testSpec())
	cand := mustExecute(t, testSpec())
	// Synthetic regression: flip most OK trials of every candidate seed.
	for pi := range cand.Points {
		p := &cand.Points[pi]
		var all []Trial
		for si := range p.Seeds {
			s := &p.Seeds[si]
			for ti := range s.Trials {
				if s.Trials[ti].Outcome == OutcomeOK && ti%2 == 0 {
					s.Trials[ti].Outcome = OutcomeFailed
				}
			}
			s.Aggregates = computeAggregates(s.Trials, s.Aggregates.Timing.Elapsed, nil, nil)
			all = append(all, s.Trials...)
		}
		p.Pooled = computeAggregates(all, 0, nil, nil)
	}
	rep := Diff(base, cand, DiffOptions{})
	if !rep.Regressed() {
		t.Fatalf("availability regression not flagged:\n%s", rep.String())
	}
	found := false
	for _, p := range rep.Points {
		for _, m := range p.Metrics {
			if m.Metric == "availability" && m.Regression {
				found = true
			}
			if m.Metric == "failed_rate" && !m.Regression {
				t.Fatalf("failed_rate should regress too: %+v", m)
			}
		}
	}
	if !found {
		t.Fatalf("availability not marked regression:\n%s", rep.String())
	}
}

func TestDiffImprovementIsNotRegression(t *testing.T) {
	base := mustExecute(t, testSpec())
	cand := mustExecute(t, testSpec())
	// Make the *baseline* worse; the candidate is then an improvement.
	for pi := range base.Points {
		p := &base.Points[pi]
		var all []Trial
		for si := range p.Seeds {
			s := &p.Seeds[si]
			for ti := range s.Trials {
				if s.Trials[ti].Outcome == OutcomeOK && ti%2 == 0 {
					s.Trials[ti].Outcome = OutcomeFailed
				}
			}
			s.Aggregates = computeAggregates(s.Trials, s.Aggregates.Timing.Elapsed, nil, nil)
			all = append(all, s.Trials...)
		}
		p.Pooled = computeAggregates(all, 0, nil, nil)
	}
	rep := Diff(base, cand, DiffOptions{})
	if rep.Regressions != 0 {
		t.Fatalf("improvement flagged as regression:\n%s", rep.String())
	}
	if rep.Significant == 0 {
		t.Fatalf("improvement should still be significant:\n%s", rep.String())
	}
}

func TestDiffTimingGatedOnlyOnRequest(t *testing.T) {
	base := mustExecute(t, testSpec())
	cand := mustExecute(t, testSpec())
	for pi := range cand.Points {
		cand.Points[pi].Pooled.Timing.P99 += 50 * time.Millisecond
		for si := range cand.Points[pi].Seeds {
			cand.Points[pi].Seeds[si].Aggregates.Timing.P99 += 50 * time.Millisecond
		}
	}
	if rep := Diff(base, cand, DiffOptions{}); rep.Regressions != 0 {
		t.Fatalf("timing regression gated without GateTiming:\n%s", rep.String())
	}
	if rep := Diff(base, cand, DiffOptions{GateTiming: true}); rep.Regressions == 0 {
		t.Fatalf("timing regression not gated with GateTiming:\n%s", rep.String())
	}
}

func TestDiffMissingPointFailsGate(t *testing.T) {
	base := mustExecute(t, testSpec())
	cand := mustExecute(t, testSpec())
	cand.Points = nil
	rep := Diff(base, cand, DiffOptions{})
	if !rep.Regressed() || len(rep.MissingInCand) != 1 {
		t.Fatalf("dropped point not flagged: %+v", rep)
	}
}

func TestEjectionBlockPoolingAndMetrics(t *testing.T) {
	// Ground truth: r2 limps and was caught; r1/r3 healthy, r3 falsely
	// ejected. Replica-level, like Conviction.
	ej := NewEjection(
		map[string]bool{"r1": false, "r2": true, "r3": false},
		map[string]bool{"r2": true, "r3": true},
	)
	if ej.TPR != 1 || ej.FPR != 0.5 {
		t.Fatalf("NewEjection rates: tpr=%g fpr=%g, want 1/0.5", ej.TPR, ej.FPR)
	}

	// Pooling across seeds sums tallies, recomputes rates, and keeps the
	// worst seed's tail amplification.
	mk := func(ta float64, e *Ejection) SeedResult {
		e.TailAmplification = ta
		s := NewSeedResult(1, []Trial{{Outcome: OutcomeOK}}, time.Millisecond, nil, nil)
		s.Aggregates.Ejection = e
		return s
	}
	run := NewRecordedRun("gray", Config{Mode: "gray", Trials: 1, Gray: "on", GrayFault: "constant:20"},
		mk(1.4, NewEjection(map[string]bool{"a": true, "b": false}, map[string]bool{"a": true})),
		mk(1.9, NewEjection(map[string]bool{"a": true, "b": false}, map[string]bool{})),
	)
	pooled := run.Points[0].Pooled.Ejection
	if pooled == nil {
		t.Fatal("pooled aggregates dropped the ejection block")
	}
	if pooled.Limpers != 2 || pooled.EjectedLimpers != 1 || pooled.TPR != 0.5 {
		t.Fatalf("pooled tallies: %+v", pooled)
	}
	if pooled.TailAmplification != 1.9 {
		t.Fatalf("pooled tail amplification = %g, want the worst seed's 1.9", pooled.TailAmplification)
	}

	// Metrics gate on presence: gray aggregates expose the rows, plain
	// aggregates never do — so non-gray runs cannot regress on them.
	m := run.Points[0].Pooled.Metrics()
	for _, name := range []string{"ejection_tpr", "ejection_fpr", "tail_amplification"} {
		if _, ok := m[name]; !ok {
			t.Fatalf("gray aggregates missing %s: %v", name, m)
		}
	}
	plain := NewSeedResult(1, []Trial{{Outcome: OutcomeOK}}, time.Millisecond, nil, nil)
	for name := range plain.Aggregates.Metrics() {
		if name == "ejection_tpr" || name == "ejection_fpr" || name == "tail_amplification" {
			t.Fatalf("plain aggregates leaked gray metric %s", name)
		}
	}

	// The grid key distinguishes arms and fault specs.
	key := run.Points[0].Config.Key()
	if !strings.Contains(key, "gray=on") || !strings.Contains(key, "grayfault=constant:20") {
		t.Fatalf("config key missing gray fields: %q", key)
	}
}

// --- bench files ---

func TestReadBenchFileLegacyAndNormalized(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "legacy.json")
	os.WriteFile(legacy, []byte(`[
	 {"package":"example.com/mod/internal/dist","name":"BenchmarkRPC","iterations":100,"ns_per_op":55387,"p99_ns":171080,"bytes_per_op":24829,"allocs_per_op":482}
	]`), 0o644)
	recs, err := ReadBenchFile(legacy)
	if err != nil {
		t.Fatalf("ReadBenchFile(legacy): %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("legacy rows = %d, want 4 metrics", len(recs))
	}
	byMetric := map[string]BenchRecord{}
	for _, r := range recs {
		if r.Benchmark != "dist/BenchmarkRPC" {
			t.Fatalf("benchmark name = %q", r.Benchmark)
		}
		byMetric[r.Metric] = r
	}
	if byMetric["ns_per_op"].Value != 55387 || byMetric["ns_per_op"].Unit != "ns/op" {
		t.Fatalf("ns_per_op row = %+v", byMetric["ns_per_op"])
	}

	norm := filepath.Join(dir, "norm.json")
	data, _ := json.Marshal(recs)
	os.WriteFile(norm, data, 0o644)
	recs2, err := ReadBenchFile(norm)
	if err != nil {
		t.Fatalf("ReadBenchFile(normalized): %v", err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("normalized reread = %d rows, want %d", len(recs2), len(recs))
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"x":1}`), 0o644)
	if _, err := ReadBenchFile(bad); !errors.Is(err, ErrBadBenchFile) {
		t.Fatalf("ReadBenchFile(bad) = %v, want ErrBadBenchFile", err)
	}
}

func TestDiffBench(t *testing.T) {
	base := []BenchRecord{
		{Benchmark: "b1", Metric: "ns_per_op", Value: 100},
		{Benchmark: "b1", Metric: "req_per_s", Value: 1000},
		{Benchmark: "b2", Metric: "ns_per_op", Value: 50},
	}
	cand := []BenchRecord{
		{Benchmark: "b1", Metric: "ns_per_op", Value: 200}, // 2x slower: regression
		{Benchmark: "b1", Metric: "req_per_s", Value: 990}, // within tolerance
	}
	rep := DiffBench(base, cand, 0.25)
	if rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1:\n%s", rep.Regressions, rep.String())
	}
	if len(rep.MissingInCand) != 1 {
		t.Fatalf("missing = %v, want b2", rep.MissingInCand)
	}
}

// --- spec validation ---

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{Mode: "net", Seeds: []uint64{1}},
		{Mode: "sim", Pattern: "bogus", Trials: 1, Seeds: []uint64{1}},
		{Mode: "sim", Pattern: "single", Trials: 0, Seeds: []uint64{1}},
		{Mode: "sim", Pattern: "single", Trials: 1},
		{Mode: "sim", Pattern: "single", Trials: 1, Seeds: []uint64{1}, P: []float64{1.5}},
		{Mode: "chaos", Seeds: []uint64{1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not: %+v", i, s)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}
