package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/softwarefaults/redundancy/internal/campaign"
)

// recordOne runs faultsim with -campaign-out into a fresh store and
// returns the single recorded run.
func recordOne(t *testing.T, args ...string) *campaign.Run {
	t.Helper()
	dir := t.TempDir()
	full := append([]string{"-campaign-out", dir}, args...)
	if err := run(full); err != nil {
		t.Fatalf("run %v = %v", args, err)
	}
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ids, err := st.IDs()
	if err != nil || len(ids) != 1 {
		t.Fatalf("store holds %d runs (err %v), want 1", len(ids), err)
	}
	doc, err := st.Load(ids[0])
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return doc
}

func TestCampaignOutSimReplaysByteIdentical(t *testing.T) {
	for _, pattern := range []string{"sequential", "single", "nvp"} {
		t.Run(pattern, func(t *testing.T) {
			doc := recordOne(t, "-pattern", pattern, "-n", "3", "-p", "0.2",
				"-trials", "400", "-seed", "7", "-campaign-name", "faultsim-ut")
			if doc.Name != "faultsim-ut" {
				t.Fatalf("name = %q", doc.Name)
			}
			if got := doc.TotalTrials(); got != 400 {
				t.Fatalf("recorded %d trials, want 400", got)
			}
			cfg := doc.Points[0].Config
			if cfg.Mode != "sim" || cfg.Pattern != pattern || cfg.Seed != 7 {
				t.Fatalf("config = %+v", cfg)
			}
			// The recorded run must replay byte-identically: the sweep
			// runner regenerates the same trial rows faultsim recorded.
			rep, err := campaign.Replay(context.Background(), doc, nil)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if rep.Mismatched != 0 || rep.Matched == 0 {
				t.Fatalf("replay matched=%d mismatched=%d: %+v",
					rep.Matched, rep.Mismatched, rep.Points)
			}
		})
	}
}

func TestCampaignOutSimAggregatesOnly(t *testing.T) {
	doc := recordOne(t, "-pattern", "sequential", "-n", "2", "-p", "0.3",
		"-trials", "200", "-seed", "3", "-campaign-trials=false")
	if len(doc.Points[0].Seeds[0].Trials) != 0 {
		t.Fatal("trials kept despite -campaign-trials=false")
	}
	if doc.Points[0].Seeds[0].Aggregates.Deterministic.Trials != 200 {
		t.Fatalf("aggregates = %+v", doc.Points[0].Seeds[0].Aggregates.Deterministic)
	}
	// Aggregates-only runs still replay via the digest fallback.
	rep, err := campaign.Replay(context.Background(), doc, nil)
	if err != nil || rep.Err() != nil {
		t.Fatalf("aggregates-only replay: %v / %v", err, rep.Err())
	}
}

func TestCampaignOutChaosStoredButNotReplayable(t *testing.T) {
	doc := recordOne(t, "-chaos", "-pattern", "sequential", "-n", "3",
		"-seed", "11", "-chaos-out", filepath.Join(t.TempDir(), "chaos.json"))
	cfg := doc.Points[0].Config
	if cfg.Mode != "chaos" || cfg.Chaos == nil {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Executor == (campaign.ExecutorConfig{}) {
		t.Fatal("chaos config did not echo the executor policy stack")
	}
	if doc.TotalTrials() != cfg.Chaos.Total() {
		t.Fatalf("recorded %d trials, campaign schedules %d",
			doc.TotalTrials(), cfg.Chaos.Total())
	}
	// Ground truth comes from the schedule: some rows must carry fault
	// labels, and the availability must be a sane fraction.
	faults := 0
	for _, tr := range doc.Points[0].Seeds[0].Trials {
		if tr.Fault != "" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no trials labeled with schedule faults")
	}
	// The recorded resilience stack is timing-dependent: replay must
	// refuse rather than report spurious divergence.
	if _, err := campaign.Replay(context.Background(), doc, nil); !errors.Is(err, campaign.ErrNotReplayable) {
		t.Fatalf("chaos replay err = %v, want ErrNotReplayable", err)
	}
}

func TestConfigOutEchoesResolvedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	if err := run([]string{"-pattern", "sequential", "-n", "3", "-p", "0.25",
		"-trials", "50", "-seed", "9", "-config-out", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("config-out not written: %v", err)
	}
	var cfg campaign.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatalf("config-out not a campaign.Config: %v", err)
	}
	if cfg.Mode != "sim" || cfg.Pattern != "sequential" || cfg.Variants != 3 ||
		cfg.FailureP != 0.25 || cfg.Trials != 50 || cfg.Seed != 9 {
		t.Fatalf("resolved config = %+v", cfg)
	}
}

func TestChaosWithoutPatternRunsSequential(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(spec, []byte(`{"name":"small","seed":2,"phases":[
		{"name":"calm","requests":20},{"name":"burst","requests":20,"error_burst":0.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "config.json")
	if err := run([]string{"-chaos", "-chaos-spec", spec, "-config-out", path}); err != nil {
		t.Fatalf("-chaos without -pattern: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cfg campaign.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Pattern != campaign.DefaultChaosPattern {
		t.Fatalf("chaos pattern = %q, want %q", cfg.Pattern, campaign.DefaultChaosPattern)
	}

	// A pattern the mode cannot run is rejected before -config-out is
	// written.
	for _, args := range [][]string{
		{"-chaos", "-chaos-spec", spec, "-pattern", "nvp"},
		{"-pattern", "bogus", "-trials", "10"},
	} {
		out := filepath.Join(t.TempDir(), "config.json")
		if err := run(append(args, "-config-out", out)); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("run(%v) wrote -config-out before rejecting the pattern (stat err %v)", args, err)
		}
	}
}

func TestCrashRunLosesNoAckedWriteAndResumes(t *testing.T) {
	dir := t.TempDir()
	// rows runs -crash over dir and returns the table's numeric rows.
	rows := func() map[string]int {
		out := captureStdout(t, func() error { return run([]string{"-crash", "-seed", "1", "-wal-dir", dir}) })
		got := map[string]int{}
		lost := ""
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if strings.HasPrefix(line, "acknowledged writes lost") {
				lost = f[len(f)-1]
			}
			for _, row := range []string{"resumed from previous run (ops)", "kills: panics", "kills: crash errors", "supervised restarts"} {
				if strings.HasPrefix(line, row) {
					n, err := strconv.Atoi(f[len(f)-1])
					if err != nil {
						t.Fatalf("%q: %v", line, err)
					}
					got[row] = n
				}
			}
		}
		if lost != "none" {
			t.Errorf("acknowledged writes lost = %q, want none:\n%s", lost, out)
		}
		return got
	}
	first := rows()
	if first["supervised restarts"] == 0 || first["supervised restarts"] != first["kills: panics"]+first["kills: crash errors"] {
		t.Errorf("restarts != panics + crash errors: %v", first)
	}
	if second := rows(); second["resumed from previous run (ops)"] != 1000 {
		t.Errorf("second run on the same store: %v, want all 1000 ops resumed", second)
	}
}

func TestCrashModeRejectsRecording(t *testing.T) {
	err := run([]string{"-crash", "-campaign-out", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "restart") {
		t.Fatalf("crash recording err = %v, want rejection", err)
	}
}
