package campaign

// The sweep runner: a Spec names a parameter grid (pattern × n × p) and
// a set of seeds; Execute runs every (point, seed) pair across parallel
// workers and assembles the Run document. Workers parallelize across
// pairs; within a pair only a chaos phase's Concurrency overlaps
// requests (see workload.go), so deterministic configs replay
// byte-identically.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
)

// Spec is a sweep request: the grid axes, the seeds, and the execution
// knobs. It is stored inside the Run it produces.
type Spec struct {
	// Name labels the run in listings.
	Name string `json:"name,omitempty"`
	// Mode is "sim" or "chaos" (net runs are recorded by faultsim, not
	// swept here).
	Mode string `json:"mode"`
	// Pattern is the executor shape: single, sequential, selection, nvp.
	Pattern string `json:"pattern,omitempty"`
	// N and P are the grid axes: redundancy degrees and per-variant
	// failure probabilities. Empty axes collapse to a single default
	// point (n=3; p=0).
	N []int     `json:"n,omitempty"`
	P []float64 `json:"p,omitempty"`
	// Rho and Bohr are held fixed across the grid.
	Rho  float64 `json:"rho,omitempty"`
	Bohr int     `json:"bohr,omitempty"`
	// Trials is the per-seed trial count (sim mode; chaos mode takes its
	// length from the schedule).
	Trials int `json:"trials,omitempty"`
	// Seeds is the seed set; every grid point runs once per seed.
	Seeds []uint64 `json:"seeds"`
	// Chaos is the schedule swept in chaos mode.
	Chaos *faultmodel.Campaign `json:"chaos,omitempty"`
	// Workers caps sweep parallelism (default GOMAXPROCS, capped at the
	// pair count).
	Workers int `json:"workers,omitempty"`
	// DropTrials stores aggregates only — for large sweeps and committed
	// baselines, where per-trial rows would bloat the document. Dropping
	// rows forfeits trial-level replay detail (aggregates still compare).
	DropTrials bool `json:"drop_trials,omitempty"`
	// Observe attaches an obs collector to every pair and stores its
	// executor snapshots.
	Observe bool `json:"observe,omitempty"`
}

// Validate checks the spec before a sweep starts.
func (s *Spec) Validate() error {
	if err := CheckPattern(s.Mode, s.Pattern); err != nil {
		return err
	}
	switch s.Mode {
	case "sim":
		if s.Trials <= 0 {
			return fmt.Errorf("%w: sim mode needs trials > 0", ErrBadConfig)
		}
	case "chaos":
		if s.Chaos == nil {
			return fmt.Errorf("%w: chaos mode needs a chaos schedule", ErrBadConfig)
		}
		if err := s.Chaos.Validate(); err != nil {
			return err
		}
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("%w: no seeds", ErrBadConfig)
	}
	for _, p := range s.P {
		if p < 0 || p > 1 {
			return fmt.Errorf("%w: failure probability %g outside [0,1]", ErrBadConfig, p)
		}
	}
	for _, n := range s.N {
		if n < 1 {
			return fmt.Errorf("%w: redundancy degree %d < 1", ErrBadConfig, n)
		}
	}
	return nil
}

// DefaultChaosPattern is the executor a chaos run builds when none is
// named.
const DefaultChaosPattern = "sequential"

// CheckPattern reports whether the runner can run pattern in mode: sim
// runs single, sequential, selection, or nvp; chaos the first three, ""
// meaning DefaultChaosPattern.
func CheckPattern(mode, pattern string) error {
	switch mode {
	case "sim":
		switch pattern {
		case "single", "sequential", "selection", "nvp":
			return nil
		}
		return fmt.Errorf("%w: sim pattern %q (want single, sequential, selection, or nvp)", ErrBadConfig, pattern)
	case "chaos":
		switch pattern {
		case "", "single", "sequential", "selection":
			return nil
		}
		return fmt.Errorf("%w: chaos pattern %q (want single, sequential, or selection)", ErrBadConfig, pattern)
	}
	return fmt.Errorf("%w: mode %q (want sim or chaos)", ErrBadConfig, mode)
}

// Points expands the grid axes into the sweep's configs (seed unset;
// Execute fills it per pair).
func (s *Spec) Points() []Config {
	ns := s.N
	if len(ns) == 0 {
		ns = []int{3}
	}
	ps := s.P
	if len(ps) == 0 {
		ps = []float64{0}
	}
	pattern := s.Pattern
	if pattern == "" && s.Mode == "chaos" {
		pattern = DefaultChaosPattern
	}
	var out []Config
	for _, n := range ns {
		for _, p := range ps {
			cfg := Config{
				Mode:     s.Mode,
				Pattern:  pattern,
				Variants: n,
				FailureP: p,
				Rho:      s.Rho,
				Bohr:     s.Bohr,
				Trials:   s.Trials,
				Chaos:    s.Chaos,
			}
			if s.Mode == "chaos" {
				cfg.Trials = s.Chaos.Total()
			}
			out = append(out, cfg)
		}
	}
	return out
}

// Progress is one sweep progress event, streamed to the run verb's
// reporter as pairs advance.
type Progress struct {
	Point      int    // grid point index
	Points     int    // grid point count
	Seed       uint64 // the pair's seed
	SeedIndex  int
	Seeds      int
	Done       int // trials finished in this pair
	Total      int // trials in this pair
	Key        string
	PairDone   bool
	PairsDone  int
	PairsTotal int
}

// Execute runs the sweep and returns the assembled (unsaved) Run.
// onProgress, when non-nil, receives throttled per-pair progress; it may
// be called from multiple workers concurrently.
func Execute(ctx context.Context, spec *Spec, onProgress func(Progress)) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	configs := spec.Points()
	run := &Run{Name: spec.Name, Build: CurrentBuild(), Spec: spec}
	run.Points = make([]PointResult, len(configs))
	for i, cfg := range configs {
		run.Points[i] = PointResult{Config: cfg, Seeds: make([]SeedResult, len(spec.Seeds))}
	}

	type job struct{ pi, si int }
	jobs := make([]job, 0, len(configs)*len(spec.Seeds))
	for pi := range configs {
		for si := range spec.Seeds {
			jobs = append(jobs, job{pi, si})
		}
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstErr  error
		pairsDone int
	)
	next := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				cfg := configs[j.pi]
				cfg.Seed = spec.Seeds[j.si]
				var report func(done, total int)
				if onProgress != nil {
					report = func(done, total int) {
						onProgress(Progress{
							Point: j.pi, Points: len(configs),
							Seed: cfg.Seed, SeedIndex: j.si, Seeds: len(spec.Seeds),
							Done: done, Total: total, Key: cfg.Key(),
							PairsTotal: len(jobs),
						})
					}
				}
				var observer obs.Observer
				var collector *obs.Collector
				if spec.Observe {
					collector = obs.NewCollector()
					observer = collector
				}
				res, _, err := RunSeed(ctx, cfg, observer, report)
				if collector != nil {
					res.Aggregates.Observed = collector.Snapshot()
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil && ctx.Err() == nil {
						firstErr = fmt.Errorf("campaign: point %d seed %d: %w", j.pi, cfg.Seed, err)
					} else if firstErr == nil {
						firstErr = err
					}
					cancel()
					mu.Unlock()
					continue
				}
				run.Points[j.pi].Seeds[j.si] = res
				pairsDone++
				done := pairsDone
				mu.Unlock()
				if onProgress != nil {
					onProgress(Progress{
						Point: j.pi, Points: len(configs),
						Seed: cfg.Seed, SeedIndex: j.si, Seeds: len(spec.Seeds),
						Done: res.Aggregates.Deterministic.Trials, Total: res.Aggregates.Deterministic.Trials,
						Key: cfg.Key(), PairDone: true, PairsDone: done, PairsTotal: len(jobs),
					})
				}
			}
		}()
	}
	for _, j := range jobs {
		select {
		case next <- j:
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pool each point's trials across seeds, then optionally drop rows.
	for pi := range run.Points {
		p := &run.Points[pi]
		var all []Trial
		var elapsed int64
		for si := range p.Seeds {
			all = append(all, p.Seeds[si].Trials...)
			elapsed += int64(p.Seeds[si].Aggregates.Timing.Elapsed)
		}
		pooled := computeAggregates(all, 0, nil, nil)
		pooled.Timing.Elapsed = time.Duration(elapsed)
		p.Pooled = pooled
		if spec.DropTrials {
			for si := range p.Seeds {
				p.Seeds[si].Trials = nil
			}
		}
	}
	return run, nil
}
