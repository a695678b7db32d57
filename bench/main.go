// Command bench is the repository's benchmark: a closed-loop load
// generator that drives four redundancy workloads through the public
// facade, checks every reply against an oracle, and reports end-to-end
// metrics (tracing off) or per-layer metrics (tracing on, from shims at
// the public seams). BENCHMARK.json at the repository root names the
// command, workloads, metrics and regression bounds; README.md in this
// directory is the glossary.
//
// With -workload it makes one run and prints the result as the last
// line, which is how the driver calls it. Without, it runs every
// workload five times, each run in a fresh child process, plus one
// traced run per workload, and prints the tables. -agree runs two such
// sets and fails if they disagree by more than a metric's bound.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// An untraced run first builds, warms and retires fleets, untimed, until
// the process is processWarm old: a fresh process runs the same set-up
// up to twice as slowly for its first second or so, and a median that
// straddles that edge repeats badly. Then it times at least minSetups set-ups, and up to
// maxSetups while they have taken under setupBudget, so a workload that
// sets up in milliseconds gets a median over more of them. setup_s is
// their median, scaled by referenceNominalUs ÷ the reference kernel's
// median run time over the same stretch; the last fleet is the one
// measured.
const (
	processWarm = 1500 * time.Millisecond
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// referenceNominalUs is the kernel run time set-up times are scaled to: a
// round figure near what the kernel takes on the sandbox when it is
// calm, so that setup_s reads as seconds on a calm machine whatever the
// machine was doing.
const referenceNominalUs = 100

// setRepeats is how many untraced runs of each workload the full set
// makes; -quick makes one.
const setRepeats = 5

// outDir is where traced runs write their trace files, relative to the
// repository root the benchmark runs from.
const outDir = "bench/out"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	isolated bool
	agree    bool
	quick    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload once and print its result line (default: the full set)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input and fault decision derives from")
	flag.Float64Var(&o.seconds, "seconds", 6, "length of one measured window")
	flag.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.BoolVar(&o.isolated, "isolated", true, "traced run: also time the isolated layer metrics (the full set times them once itself)")
	flag.BoolVar(&o.agree, "agree", false, "run two full sets and fail if they disagree beyond a metric's bound")
	flag.BoolVar(&o.quick, "quick", false, "full set: one repeat of one second")
	flag.Parse()
	if o.quick {
		o.seconds = 1
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		return errors.New("bad arguments (see -h)")
	}
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		return runOne(w, o)
	}
	env := probeEnvironment(o.seed)
	env.print(os.Stdout)
	first, err := runSet(o)
	if err != nil {
		return err
	}
	first.print(os.Stdout)
	if !o.agree {
		return nil
	}
	second, err := runSet(o)
	if err != nil {
		return err
	}
	second.print(os.Stdout)
	return printAgreement(os.Stdout, first, second)
}

// runOne makes one run of one workload in this process and prints its
// result as the last line. An untraced run prints a line of the same
// shape before it, holding the ungated timings of the same window, for
// the full set to read.
func runOne(w workload, o options) error {
	env := probeEnvironment(o.seed)
	env.print(os.Stdout)
	var (
		lines []result
		err   error
	)
	if o.trace == 1 {
		lines, err = tracedRun(w, o, env)
	} else {
		lines, err = untracedRun(w, o)
	}
	if err != nil {
		return fmt.Errorf("workload %s seed %d: %w", w.name, o.seed, err)
	}
	for _, res := range lines {
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if res := lines[len(lines)-1]; !res.Correct {
		return fmt.Errorf("workload %s seed %d: %d of %d replies wrong or failed", w.name, o.seed, res.Failed, res.Attempted)
	}
	return nil
}

// readyFleet builds a fleet and warms it (round numbers the set-ups of a
// run); it returns the fleet, how long that took, and the request rate
// the warm-up saw.
func readyFleet(w workload, seed uint64, round int, t *tracer) (*fleet, time.Duration, float64, error) {
	start := time.Now()
	f, err := w.build(seed, t)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build fleet: %w", err)
	}
	rate, err := warmup(f, seed, round)
	if err != nil {
		f.close()
		return nil, 0, 0, err
	}
	return f, time.Since(start), rate, nil
}

// retire closes a fleet and applies the correctness gate to it:
// observed request count equals the harness's, no breaker opened,
// nothing was shed, and every goroutine the fleet started is gone.
func retire(w workload, f *fleet, sent int64, baseline int) error {
	f.close()
	if f.collector != nil {
		for _, e := range f.collector.Snapshot() {
			if e.Executor == w.executor && e.Requests != sent {
				return fmt.Errorf("collector saw %d requests on %s, harness sent %d", e.Requests, e.Executor, sent)
			}
		}
	}
	if f.breakers != nil && f.breakers.Opens() != 0 {
		return fmt.Errorf("resilience.breaker_opens = %d, want 0", f.breakers.Opens())
	}
	if f.bulkhead != nil && f.bulkhead.Sheds() != 0 {
		return fmt.Errorf("resilience.shed_share: %d requests shed, want 0", f.bulkhead.Sheds())
	}
	// Twice the longest deadline anything in a fleet can be blocked on.
	deadline := time.Now().Add(2 * patience)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // which ones
			return fmt.Errorf("%d goroutines alive after Close, %d before the fleet was built", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// timings are the demoted metrics of one window.
func timings(win window) map[string]float64 {
	return map[string]float64{
		"throughput_rps": median(win.throughput),
		"latency_p50_us": median(win.p50us),
		"latency_p99_us": median(win.p99us),
		"cpu_us_per_req": median(win.cpuUs),
	}
}

// setUp makes the untimed and then the timed set-ups of an untraced run
// (see processWarm). It returns the last fleet, the request rate its
// warm-up saw, how long each timed set-up took in seconds, and the
// reference kernel's median run time while they were timed.
func setUp(w workload, seed uint64, baseline int) (f *fleet, rate float64, setups []float64, refUs float64, err error) {
	processStart := time.Now()
	for round := maxSetups; time.Since(processStart) < processWarm; round++ {
		if f, _, _, err = readyFleet(w, seed, round, nil); err != nil {
			return nil, 0, nil, 0, err
		}
		if err = retire(w, f, warmupRequests, baseline); err != nil {
			return nil, 0, nil, 0, err
		}
	}
	ref := startReference(int(4 * setupBudget / referenceEvery))
	defer ref.close()
	started := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(started) < setupBudget) {
		if len(setups) > 0 {
			// One goroutine over the baseline is the reference's.
			if err = retire(w, f, warmupRequests, baseline+1); err != nil {
				return nil, 0, nil, 0, err
			}
		}
		var took time.Duration
		if f, took, rate, err = readyFleet(w, seed, len(setups), nil); err != nil {
			return nil, 0, nil, 0, err
		}
		setups = append(setups, took.Seconds())
	}
	if refUs = ref.take(); refUs == 0 {
		f.close()
		return nil, 0, nil, 0, errors.New("the reference kernel never ran during the set-ups")
	}
	return f, rate, setups, refUs, nil
}

// untracedRun measures the end-to-end metrics. It returns two result
// lines: the ungated timings, then the gated metrics the driver reads.
func untracedRun(w workload, o options) ([]result, error) {
	baseline := runtime.NumGoroutine()
	f, rate, setups, setupRefUs, err := setUp(w, o.seed, baseline)
	if err != nil {
		return nil, err
	}
	win, err := measure(f, o.seed, o.seconds, rate)
	if err != nil {
		f.close()
		return nil, err
	}
	if err := retire(w, f, warmupRequests+win.attempted, baseline); err != nil {
		return nil, err
	}
	if len(win.cpuRel) == 0 {
		return nil, errors.New("the reference kernel never ran during the window")
	}
	vals := timings(win)
	vals["cpu_rel_per_req"] = median(win.cpuRel)
	vals["allocs_per_req"] = float64(win.mallocs) / float64(win.attempted)
	vals["alloc_kb_per_req"] = float64(win.allocBytes) / 1024 / float64(win.attempted)
	vals["setup_s"] = median(setups) * referenceNominalUs / setupRefUs
	fmt.Printf("workload %s: %d requests in %.2f s, %d latency samples over %d slices\n",
		w.name, win.attempted, win.seconds, win.samples, len(win.throughput))
	fmt.Printf("  failed_share %g ratio, wrong_answers %d count\n",
		float64(win.failures())/float64(win.attempted), win.wrong)
	fmt.Printf("  throughput_rps by slice %s (max/min %.3f)\n", series(win.throughput), spread(win.throughput))
	fmt.Printf("  latency_p50_us by slice %s\n", series(win.p50us))
	fmt.Printf("  latency_p99_us by slice %s\n", series(win.p99us))
	fmt.Printf("  cpu_us_per_req by slice %s\n", series(win.cpuUs))
	fmt.Printf("  ref_kernel_us by slice %s\n", series(win.refUs))
	fmt.Printf("  cpu_rel_per_req by slice %s\n", series(win.cpuRel))
	fmt.Printf("  set-up seconds, unscaled, by set-up %s (median %.4g, reference kernel %.4g us)\n", series(setups), median(setups), setupRefUs)
	fmt.Println("ungated timings of the window:")
	printMetrics(os.Stdout, demoted, vals)
	fmt.Println("gated:")
	printMetrics(os.Stdout, endToEnd, vals)
	res := result{Correct: win.failures() == 0, Attempted: win.attempted, Failed: win.failures()}
	ungated, gated := res, res
	ungated.Metrics, gated.Metrics = pack(demoted, vals), pack(endToEnd, vals)
	return []result{ungated, gated}, nil
}

// settle waits, for at most patience, until the live heap is back near
// floor. Connections a fleet dropped stay reachable from their deadline
// timers until those fire; a fleet built before then runs on a larger
// heap, with fewer collections, than the one before it did.
func settle(floor uint64) {
	const slack = 256 << 10
	for deadline := time.Now().Add(patience); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc <= floor+slack {
			return
		}
	}
}

// tracedRun measures the per-layer metrics: half the time untraced
// (for the demoted timings, the runtime figures and the tracing
// overhead), half with the seam shims on, then, unless told not to, the
// isolated layer timings.
func tracedRun(w workload, o options, env environment) ([]result, error) {
	baseline := runtime.NumGoroutine()
	half := o.seconds / 2
	var idle runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&idle)

	f, _, rate, err := readyFleet(w, o.seed, 0, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(f, o.seed, half, rate)
	if err != nil {
		f.close()
		return nil, err
	}
	if err := retire(w, f, warmupRequests+plain.attempted, baseline); err != nil {
		return nil, err
	}
	// Without this the traced fleet meets fewer collections than the
	// untraced one did, and tracing reads as a speed-up.
	settle(idle.HeapAlloc)

	t, err := newTracer(float64(plain.attempted)/plain.seconds, half)
	if err != nil {
		return nil, err
	}
	defer t.close()
	f, _, rate, err = readyFleet(w, o.seed, 1, t)
	if err != nil {
		return nil, err
	}
	warmupDials := t.reset()
	traced, err := measure(f, o.seed, half, rate)
	if err != nil {
		f.close()
		return nil, err
	}
	vals := timings(plain)
	// These five stay 0 on a workload that has no such layer.
	for _, name := range []string{"pattern.masked_share", "dist.hedges_per_req", "dist.hedge_win_ratio", "resilience.breaker_opens", "resilience.shed_share"} {
		vals[name] = 0
	}
	if f.collector != nil {
		for _, e := range f.collector.Snapshot() {
			switch e.Executor {
			case w.executor:
				vals["pattern.masked_share"] = ratio(float64(e.FailuresMasked), float64(e.Requests))
			case f.distName:
				vals["dist.hedges_per_req"] = ratio(float64(e.Hedges), float64(e.Requests))
				vals["dist.hedge_win_ratio"] = ratio(float64(e.HedgeWins), float64(e.Hedges))
			}
		}
	}
	if f.breakers != nil {
		vals["resilience.breaker_opens"] = float64(f.breakers.Opens())
	}
	if f.bulkhead != nil {
		vals["resilience.shed_share"] = ratio(float64(f.bulkhead.Sheds()), float64(traced.attempted))
	}
	if err := retire(w, f, warmupRequests+traced.attempted, baseline); err != nil {
		return nil, err
	}

	spans := t.linked()
	path, err := writeTrace(outDir, w.name, spans)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	lt := analyze(spans, w.needReplies)
	reqs := float64(traced.attempted)
	perReq := func(n int64) float64 { return ratio(float64(n), reqs) }
	vals["pattern.self_us"] = lt.patternSelfUs
	vals["pattern.variants_per_req"] = perReq(t.clientVariantCalls.Load())
	vals["dist.outbound_us"] = lt.distOutboundUs
	vals["dist.inbound_us"] = lt.distInboundUs
	vals["variant.exec_us"] = lt.variantExecUs
	vals["dist.dials_per_req"] = perReq(t.dials.Load())
	vals["dist.conn_writes_per_req"] = perReq(t.connWrites.Load())
	vals["dist.wire_bytes_per_req"] = perReq(t.wireBytes.Load())
	vals["dist.wire_overhead_ratio"] = ratio(float64(t.wireBytes.Load()), reqs*float64(w.payloadBytes))
	vals["dist.write_block_us_per_req"] = perReq(t.writeBlockNs.Load()) / 1e3
	vals["dist.read_block_us_per_req"] = perReq(t.readBlockNs.Load()) / 1e3
	vals["dist.attempts_per_req"] = perReq(t.serverVariantCalls.Load())
	vals["dist.useful_attempt_ratio"] = ratio(reqs, float64(t.serverVariantCalls.Load()))
	vals["runtime.gc_cycles_per_kreq"] = ratio(float64(plain.gcCycles), float64(plain.attempted)/1000)
	vals["runtime.gc_pause_share"] = ratio(float64(plain.gcPauseNs)/1e9, plain.seconds)
	vals["runtime.heap_retained_kb"] = plain.retainedKiB
	vals["trace.overhead_ratio"] = ratio(median(plain.throughput), median(traced.throughput))
	vals["trace.spans_per_req"] = ratio(float64(len(spans)-warmupDials), float64(lt.requests))
	vals["loadgen.samples"] = float64(plain.samples)
	vals["loadgen.repeat_spread"] = spread(plain.throughput)
	vals["loadgen.timer_overshoot_us"] = env.timerOvershootUs
	vals["loadgen.loadavg_start"] = env.loadavg
	vals["loadgen.ref_kernel_us"] = median(plain.refUs)

	defs := perLayerRun
	if o.isolated {
		iso, err := isolated()
		if err != nil {
			return nil, fmt.Errorf("isolated layer timings: %w", err)
		}
		for k, v := range iso {
			vals[k] = v
		}
		defs = perLayer
	}

	attempted, failed := plain.attempted+traced.attempted, plain.failures()+traced.failures()
	fmt.Printf("workload %s: %d requests untraced, %d traced (1 request in %d keeps its spans: %d requests, %d spans)\n",
		w.name, plain.attempted, traced.attempted, t.stride, lt.requests, len(spans))
	fmt.Printf("  trace written to %s\n", path)
	printMetrics(os.Stdout, defs, vals)
	return []result{{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   pack(defs, vals),
	}}, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func series(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(out io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
}

// environment is what a result should be read against.
type environment struct {
	commit           string
	seed             uint64
	nproc            int
	gomaxprocs       int
	goVersion        string
	timerOvershootUs float64
	loadavg          float64
}

func probeEnvironment(seed uint64) environment {
	env := environment{
		commit:     commit(),
		seed:       seed,
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
	}
	// How late a short sleep returns: on a machine with coarse timers a
	// paced (open-loop) schedule would measure this, not the program.
	const ask = 50 * time.Microsecond
	var over []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		time.Sleep(ask)
		over = append(over, float64(time.Since(start)-ask)/1e3)
	}
	env.timerOvershootUs = median(over)
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) > 0 {
			env.loadavg, _ = strconv.ParseFloat(fields[0], 64) // stays 0 if the field is not a number
		}
	}
	return env
}

func (e environment) print(out io.Writer) {
	fmt.Fprintf(out, "environment: commit %s, seed %d, nproc %d, GOMAXPROCS %d, %s, %d clients, sleep(50us) overshoots %.0f us, load average %.2f\n",
		e.commit, e.seed, e.nproc, e.gomaxprocs, e.goVersion, clients, e.timerOvershootUs, e.loadavg)
	if e.loadavg > float64(e.nproc) {
		fmt.Fprintf(out, "WARNING: load average %.2f exceeds %d processors; timings will read slow\n", e.loadavg, e.nproc)
	}
}

// commit names the source revision: from the build's VCS stamp, else
// from .git in the working directory, else unknown (the driver's
// checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// child makes one run in a fresh process and returns the result lines
// it printed: the ungated timings and the gated metrics of an untraced
// run, the per-layer metrics (without the isolated ones) of a traced one.
func child(o options, workload string, trace int) ([]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-isolated=false")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var lines []result
	for _, line := range strings.Split(string(out), "\n") {
		var res result
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &res) == nil {
			lines = append(lines, res)
		}
	}
	if want := 2 - trace; len(lines) != want {
		if runErr != nil {
			return nil, fmt.Errorf("%s run failed: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s run printed %d result lines, want %d", workload, len(lines), want)
	}
	if runErr != nil {
		last := lines[len(lines)-1]
		return nil, fmt.Errorf("%s run failed (%d of %d replies wrong or failed): %w", workload, last.Failed, last.Attempted, runErr)
	}
	return lines, nil
}
