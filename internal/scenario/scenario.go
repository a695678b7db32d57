// Package scenario runs the distributed experiments E24–E29 from their
// campaign.Config. Run builds the fleet — replica servers on an
// in-memory network under a supervisor, a heartbeat failure detector,
// and the mode's client — adds the mode's fault and mitigation, drives
// the request loop, and returns per-trial rows plus one Result.
// cmd/faultsim prints and records the Result; the root acceptance tests
// assert on it. Both therefore run the same fleet.
//
// The experiment is the Config. Every value it carries — call timeout,
// hedging, breaker, retry, network schedule, fleet size, adversary,
// controller and gray-failure arms, request count, seed — is read from
// it, so `faultsim -config-out` describes what actually ran. Every other
// constant is written down once, per mode, in this package, and the
// mode's Config constructor (NetConfig, QuorumConfig, ControlConfig,
// GrayConfig) is the one place its recorded policy values live.
package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/control"
	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/dist"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/supervise"
)

// Options attach a caller's observation to a run without changing the
// experiment.
type Options struct {
	// Observer receives every event the fleet emits, beside the run's
	// own collector.
	Observer obs.Observer
	// ReplicaObserver, if set, gives each replica server its own
	// observer (beside the collector) in place of Observer — one trace
	// file per process, linked only by the trace context on the wire.
	ReplicaObserver func(name string) obs.Observer
}

// Result is one run's outcome. Fields marked with a mode are zero (or
// nil) outside it.
type Result struct {
	Trials   []campaign.Trial // one row per request, in order
	Elapsed  time.Duration
	Replicas []string // the fleet the run started with
	Served   int      // correct answers
	Wrong    int      // wrong answers the client accepted
	P50, P99 time.Duration
	Observed []obs.ExecutorSnapshot // the collector's final snapshot
	// SLO is the client-path burn-rate tracker (net, control), still
	// queryable after the run.
	SLO *obs.SLOTracker
	// Members holds the detector's verdicts at exit on the replicas it
	// still watches, in start order.
	Members    []Member
	HedgeAfter time.Duration // the client's hedge delay at exit
	Fault      string        // the injected fault schedule (control, gray)

	Conviction *campaign.Conviction // the detector against the liars (quorum)
	Ejection   *campaign.Ejection   // the ejector against the limper (gray)
	Actions    map[string]int       // performed controller actions by kind; nil if none

	// Phases lists the network-campaign phases requests ran in, in order;
	// a clean network is one unnamed phase (net).
	Phases []Phase
	// TimeToSuspect is, per replica a phase partitions, the time from the
	// phase's first request to the first that found the detector no
	// longer holding it alive (net).
	TimeToSuspect map[string]time.Duration

	Attacked int // requests a liar lied on (quorum)

	MTTR       time.Duration // first replacement, kill to splice (control)
	Suppressed int64         // proposals the rate limit dropped (control)
	Deposit    float64       // retry deposit rate at exit (control)
	Endpoints  []string      // the client's endpoints at exit (control)

	BaselineP99     time.Duration          // p99 outside the limp window (gray)
	TimeToEject     time.Duration          // limp start to the limper's ejection (gray on)
	FloorViolations int                    // requests left below the ejection floor (gray on)
	Latency         []dist.EndpointLatency // the ejector's state at exit (gray on)
}

// Member is the failure detector's verdict on one replica.
type Member struct {
	Name                          string
	State                         obs.ReplicaState
	Misses, Accusations, Slowness int
}

// Phase is what the request loop saw of one network-campaign phase: the
// highest client-side fast burn rate sampled in it, and on which executor.
type Phase struct {
	Name       string
	PeakBurn   float64
	PeakBurnOn string
}

// SeedResult packages the run for the campaign store.
func (r *Result) SeedResult(seed uint64) campaign.SeedResult {
	var slo []obs.SLOStatus
	if r.SLO != nil {
		slo = r.SLO.Snapshot()
	}
	s := campaign.NewSeedResult(seed, r.Trials, r.Elapsed, r.Observed, slo)
	s.Aggregates.Conviction = r.Conviction
	s.Aggregates.Ejection = r.Ejection
	s.Aggregates.Actions = r.Actions
	return s
}

// callTimeout bounds one RPC attempt in every fleet.
const callTimeout = faultmodel.Duration(150 * time.Millisecond)

// fleetConfig is the part of a Config every mode's constructor shares:
// three replicas serving requests at seed.
func fleetConfig(mode, pattern string, seed uint64, requests int) campaign.Config {
	return campaign.Config{Mode: mode, Pattern: pattern, Variants: 3, Seed: seed, Requests: requests, Trials: requests}
}

// modes maps a Config.Mode to the function that builds and drives it.
var modes = map[string]func(context.Context, *fleet) error{
	"net":     runNet,
	"quorum":  runQuorum,
	"control": runControl,
	"gray":    runGray,
}

// Run builds the fleet cfg describes, drives its workload, and tears
// everything down before returning.
func Run(ctx context.Context, cfg campaign.Config, opts Options) (*Result, error) {
	mode, ok := modes[cfg.Mode]
	if !ok {
		return nil, fmt.Errorf("scenario: %q is not a fleet mode", cfg.Mode)
	}
	if cfg.Requests < 1 && cfg.Network == nil {
		return nil, fmt.Errorf("scenario: %d requests", cfg.Requests)
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := &fleet{
		cfg:       cfg,
		opts:      opts,
		res:       &Result{},
		collector: obs.NewCollector(),
		network:   dist.NewPipeNetwork(),
		cancel:    cancel,
	}
	defer f.stop()
	if err := mode(ctx, f); err != nil {
		return nil, err
	}
	if f.stop(); f.err != nil {
		return nil, fmt.Errorf("scenario: fleet supervisor: %w", f.err)
	}
	res := f.res
	res.Elapsed = time.Since(start)
	res.Observed = f.collector.Snapshot()
	lats := make([]time.Duration, len(res.Trials))
	for i, t := range res.Trials {
		lats[i] = t.Latency
	}
	res.P50, res.P99 = percentile(lats, 50), percentile(lats, 99)
	if res.Ejection != nil && res.BaselineP99 > 0 {
		// Tail amplification: the run's p99 over the healthy baseline's.
		res.Ejection.TailAmplification = float64(res.P99) / float64(res.BaselineP99)
	}
	if c := f.controller; c != nil {
		if counts := c.Counts(); len(counts) > 0 {
			res.Actions = counts
		}
		res.Suppressed = c.Suppressed()
	}
	states := f.detector.States()
	for _, name := range f.order {
		if state, ok := states[name]; ok {
			misses, accusations, slowness := f.detector.Evidence(name)
			res.Members = append(res.Members, Member{name, state, misses, accusations, slowness})
		}
	}
	return res, nil
}

// fleet is the state every mode shares: the network, the supervised
// replica servers, the detector, and the run's rows.
type fleet struct {
	cfg       campaign.Config
	opts      Options
	res       *Result
	collector *obs.Collector
	// observer is what clients, servers, and the detector report to: the
	// collector, the caller's observer, and the mode's own.
	observer obs.Observer
	network  *dist.PipeNetwork
	sup      *supervise.Supervisor
	detector *dist.Detector
	// controller is the mode's control loop, if it has one.
	controller *control.Controller
	cancel     context.CancelFunc
	done       chan error
	err        error // the supervisor's exit error, after stop

	order []string   // every replica served, in start order
	mu    sync.Mutex // guards res.Trials against controller actuators
}

// double is every healthy replica's service.
var double = core.NewVariant("double", func(_ context.Context, x int) (int, error) { return 2 * x, nil })

// start creates the supervisor and detector under the mode's names; own
// are the mode's observers beside the collector.
func (f *fleet) start(supervisor string, det dist.DetectorConfig, own ...obs.Observer) {
	f.observer = obs.Combine(append([]obs.Observer{f.collector, f.opts.Observer}, own...)...)
	f.sup = supervise.New(supervise.Options{Name: supervisor, Observer: f.observer})
	det.Observer = f.observer
	f.detector = dist.NewDetector(det)
}

// dial is the dial path to one replica, through the network campaign
// when there is one: clients and heartbeats see the same weather.
func (f *fleet) dial(name string) dist.DialFunc {
	dial := f.network.Dial(name)
	if f.cfg.Network != nil {
		dial = f.cfg.Network.Wrap(name, dial)
	}
	return dial
}

func (f *fleet) endpoint(name string) dist.Endpoint {
	return dist.Endpoint{Name: name, Dial: f.dial(name)}
}

func (f *fleet) endpoints(names []string) []dist.Endpoint {
	eps := make([]dist.Endpoint, len(names))
	for i, name := range names {
		eps[i] = f.endpoint(name)
	}
	return eps
}

// serve starts a replica server for v under the supervisor (dynamic:
// into the running one, from the controller's goroutine) and has the
// detector watch it. The server shuts down with the supervisor.
func (f *fleet) serve(name string, v core.Variant[int, int], dynamic bool) (*dist.Server[int, int], error) {
	ln, err := f.network.Listen(name)
	if err != nil {
		return nil, err
	}
	o := f.observer
	if f.opts.ReplicaObserver != nil {
		o = obs.Combine(f.collector, f.opts.ReplicaObserver(name))
	}
	srv := dist.NewServer(v, ln, dist.ServerConfig{Name: name, Observer: o})
	f.order = append(f.order, name)
	if !dynamic {
		f.res.Replicas = append(f.res.Replicas, name)
		err = f.sup.Add(srv.AsChild())
	} else {
		err = f.sup.StartChild(srv.AsChild())
	}
	if err != nil {
		return nil, err
	}
	f.detector.Watch(name, f.dial(name))
	return srv, nil
}

// launch adds the detector and the mode's other children behind the
// replica servers and starts the supervisor.
func (f *fleet) launch(ctx context.Context, children ...supervise.ChildSpec) error {
	for _, c := range append([]supervise.ChildSpec{f.detector.AsChild()}, children...) {
		if err := f.sup.Add(c); err != nil {
			return err
		}
	}
	f.done = make(chan error, 1)
	go func() { f.done <- f.sup.Serve(ctx) }()
	return nil
}

// stop cancels the run and waits for every supervised child — replica
// servers, detector, controller — to exit.
func (f *fleet) stop() {
	f.cancel()
	if f.done != nil {
		f.err = <-f.done
		f.done = nil
	}
}

// names returns r1..rn.
func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r%d", i+1)
	}
	return out
}

// remoteConfig is the client policy cfg records: call timeout, hedging,
// and the breaker when one is configured.
func (f *fleet) remoteConfig() dist.RemoteConfig {
	e := f.cfg.Executor
	return dist.RemoteConfig{
		CallTimeout: time.Duration(e.CallTimeout),
		HedgeAfter:  time.Duration(e.HedgeAfter),
		MaxHedges:   e.MaxHedges,
		Breakers:    e.Breakers(),
		Detector:    f.detector,
		Observer:    f.observer,
	}
}

// call drives request x through client and books its row: fault is the
// ground-truth label, variant who the answer is attributed to. Every
// mode's replicas double their input, so a wrong answer is one that is
// not 2x; it is accepted (and counted) rather than turned into an error.
func (f *fleet) call(ctx context.Context, client core.Executor[int, int], x int, fault, variant string) (i int, correct bool) {
	f.mu.Lock()
	i = len(f.res.Trials)
	f.res.Trials = append(f.res.Trials, campaign.Trial{
		Index: i, TraceID: campaign.TrialTraceID(f.cfg.Seed, i), Fault: fault, Variant: variant,
	})
	f.mu.Unlock()
	start := time.Now()
	got, err := client.Execute(ctx, x)
	latency := time.Since(start)
	correct = err == nil && got == 2*x
	f.mu.Lock()
	t := &f.res.Trials[i]
	t.Latency, t.Outcome, t.Wrong = latency, campaign.OutcomeOf(err), err == nil && !correct
	f.mu.Unlock()
	if correct {
		f.res.Served++
	} else if err == nil {
		f.res.Wrong++
	}
	return i, correct
}

// acting wraps a controller actuator so every performed action is
// booked on the request in flight.
func (f *fleet) acting(act control.Actuator) control.Actuator {
	return func(ctx context.Context, a control.Action) (control.Action, error) {
		done, err := act(ctx, a)
		if err == nil {
			f.mu.Lock()
			if n := len(f.res.Trials); n > 0 {
				f.res.Trials[n-1].Actions++
			}
			f.mu.Unlock()
		}
		return done, err
	}
}

// percentile returns the p-th percentile (nearest rank below) of ds.
func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*p/100]
}
