package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/softwarefaults/redundancy/internal/obs/health"
)

func TestRunNVP(t *testing.T) {
	if err := run([]string{"-pattern", "nvp", "-n", "3", "-p", "0.1", "-trials", "2000"}); err != nil {
		t.Errorf("nvp run = %v", err)
	}
}

func TestRunNVPCorrelated(t *testing.T) {
	if err := run([]string{"-pattern", "nvp", "-n", "5", "-p", "0.1", "-rho", "0.5", "-trials", "2000"}); err != nil {
		t.Errorf("correlated run = %v", err)
	}
}

func TestRunDetectedPatterns(t *testing.T) {
	for _, p := range []string{"single", "selection", "sequential"} {
		if err := run([]string{"-pattern", p, "-n", "3", "-p", "0.2", "-trials", "500"}); err != nil {
			t.Errorf("%s run = %v", p, err)
		}
	}
}

func TestRunSeedFlag(t *testing.T) {
	if err := run([]string{"-seed", "42", "-pattern", "single", "-trials", "100"}); err != nil {
		t.Errorf("seeded run = %v", err)
	}
}

func TestRunMetricsAddrFlag(t *testing.T) {
	// An ephemeral port: the run serves /metrics during the simulation and
	// shuts the listener down on return.
	if err := run([]string{"-metrics-addr", "127.0.0.1:0", "-pattern", "sequential", "-n", "2", "-p", "0.2", "-trials", "200"}); err != nil {
		t.Errorf("metrics-addr run = %v", err)
	}
}

func TestRunMetricsAddrInvalid(t *testing.T) {
	if err := run([]string{"-metrics-addr", "not-an-address", "-pattern", "single", "-trials", "10"}); err == nil {
		t.Error("invalid metrics address accepted")
	}
}

func TestRunTraceOutFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.json")
	if err := run([]string{"-trace-out", path, "-pattern", "sequential", "-n", "2", "-p", "0.2", "-trials", "300"}); err != nil {
		t.Fatalf("trace-out run = %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	defer f.Close()
	traces, err := health.ReadTraces(f)
	if err != nil {
		t.Fatalf("trace file not decodable: %v", err)
	}
	if len(traces) == 0 {
		t.Error("trace file holds no traces")
	}
}

func TestRunBohrFlagDiagnosesDeterministicFailure(t *testing.T) {
	// Variant 1 fails every execution; replaying the exported traces must
	// label it Bohrbug-like while the fallback stays healthy.
	path := filepath.Join(t.TempDir(), "traces.json")
	if err := run([]string{"-trace-out", path, "-pattern", "sequential", "-n", "2", "-p", "0", "-bohr", "1", "-trials", "200"}); err != nil {
		t.Fatalf("bohr run = %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := health.ReadTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	g := health.New(health.Config{})
	health.Replay(g, traces)
	classes := map[string]health.FaultClass{}
	for _, e := range g.Snapshot() {
		for _, v := range e.Variants {
			classes[v.Variant] = v.Class
		}
	}
	if classes["v1"] != health.ClassBohrbug {
		t.Errorf("v1 class = %v, want %v", classes["v1"], health.ClassBohrbug)
	}
	if classes["v2"] != health.ClassHealthy {
		t.Errorf("v2 class = %v, want %v", classes["v2"], health.ClassHealthy)
	}
}

func TestRunBohrFlagInvalid(t *testing.T) {
	if err := run([]string{"-bohr", "5", "-n", "3", "-pattern", "sequential", "-trials", "10"}); err == nil {
		t.Error("out-of-range -bohr accepted")
	}
}

func TestRunUnknownPattern(t *testing.T) {
	if err := run([]string{"-pattern", "nope"}); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestRunInvalidParameters(t *testing.T) {
	bad := [][]string{
		{"-n", "0"},
		{"-p", "1.5"},
		{"-rho", "-0.1"},
		{"-trials", "0"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestPow(t *testing.T) {
	if pow(2, 3) != 8 || pow(0.5, 2) != 0.25 || pow(7, 0) != 1 {
		t.Error("pow incorrect")
	}
}

func TestRunNetClean(t *testing.T) {
	if err := run([]string{"-net", "-net-requests", "200"}); err != nil {
		t.Errorf("net run = %v", err)
	}
}

func TestRunNetChaosWithSpec(t *testing.T) {
	// A compressed campaign so the test stays fast: a blink of clean
	// network, a partition of r2, and a lossy tail.
	spec := `{
		"name": "test-net",
		"seed": 3,
		"phases": [
			{"name": "warmup", "duration": "100ms"},
			{"name": "cut", "duration": "400ms", "partition": ["r2"]},
			{"name": "rough", "duration": "200ms", "loss": 0.05, "latency_spike": 0.1, "spike_delay": "10ms"}
		]
	}`
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-net-chaos", "-net-spec", path, "-seed", "3"}); err != nil {
		t.Errorf("net-chaos run = %v", err)
	}
}

func TestRunNetInvalid(t *testing.T) {
	if err := run([]string{"-net", "-net-requests", "0"}); err == nil {
		t.Error("zero -net-requests accepted")
	}
	if err := run([]string{"-net-chaos", "-net-spec", "/nonexistent/spec.json"}); err == nil {
		t.Error("missing -net-spec file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","phases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-net-chaos", "-net-spec", path}); err == nil {
		t.Error("empty-phase network campaign accepted")
	}
}

// TestFleetTranscriptRows pins the stats-table rows the CI jobs gate
// with awk: each label must start a line, in this order, and where awk
// reads a number, the field it reads must hold one.
func TestFleetTranscriptRows(t *testing.T) {
	// The field awk reads per numeric row: -1 is $NF, 2 is $3.
	field := map[string]int{
		"availability": -1, "wrong answers accepted": -1, "wrong answers": -1,
		"tail amplification": -1, "ejection TPR": 2, "ejection FPR": 2, "reinstatements": -1,
	}
	cases := []struct {
		args []string
		rows []string
	}{
		{[]string{"-adversary", "always:1"}, []string{"availability", "wrong answers accepted", "final membership"}},
		{[]string{"-control", "on"}, []string{"availability", "controller actions", "replacement MTTR", "final membership"}},
		{[]string{"-control", "off"}, []string{"availability", "controller actions", "replacement MTTR", "final membership"}},
		{[]string{"-gray", "on"}, []string{"availability", "wrong answers", "tail amplification",
			"ejection TPR", "ejection FPR", "reinstatements", "final membership"}},
		{[]string{"-gray", "off"}, []string{"availability", "wrong answers", "tail amplification", "final membership"}},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, "_"), func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run(append(tc.args, "-seed", "1", "-net-requests", "40"))
			})
			lines := strings.Split(out, "\n")
			at := 0
			for _, row := range tc.rows {
				for at < len(lines) && !strings.HasPrefix(lines[at], row) {
					at++
				}
				if at == len(lines) {
					t.Fatalf("row %q missing or out of order in:\n%s", row, out)
				}
				if i, ok := field[row]; ok {
					fields := strings.Fields(lines[at])
					if i < 0 {
						i = len(fields) - 1
					}
					if _, err := strconv.ParseFloat(strings.TrimSuffix(fields[i], "×"), 64); err != nil {
						t.Errorf("%q: awk reads %q, not a number", lines[at], fields[i])
					}
				}
			}
		})
	}
}

// captureStdout returns what fn printed to stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, out)
	}
	return out
}
