package campaign

// Replay: re-execute a stored run's deterministic (config, seed) pairs
// and assert the fresh results are byte-identical to the stored ones —
// the experiment harness's analogue of a WAL replay check. A run whose
// trials were dropped at record time still replays: the comparison
// falls back to the deterministic aggregates alone.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
)

// Replay errors.
var (
	// ErrNotReplayable reports a run with no deterministic points (net
	// mode, or parallel selection everywhere).
	ErrNotReplayable = errors.New("campaign: run has no deterministic points to replay")
	// ErrReplayMismatch reports a replay that diverged from the stored
	// results.
	ErrReplayMismatch = errors.New("campaign: replay diverged from stored run")
)

// SeedReplay is one (point, seed) pair's verdict.
type SeedReplay struct {
	Seed   uint64 `json:"seed"`
	Match  bool   `json:"match"`
	Detail string `json:"detail,omitempty"`
}

// PointReplay is one grid point's verdicts.
type PointReplay struct {
	Key     string       `json:"key"`
	Skipped bool         `json:"skipped,omitempty"` // nondeterministic config
	Seeds   []SeedReplay `json:"seeds,omitempty"`
}

// ReplayReport is the whole replay's outcome.
type ReplayReport struct {
	RunID      string        `json:"run_id"`
	Points     []PointReplay `json:"points"`
	Matched    int           `json:"matched"`
	Mismatched int           `json:"mismatched"`
	Skipped    int           `json:"skipped"` // nondeterministic pairs not replayed
}

// Err converts the report into the gate's verdict.
func (r *ReplayReport) Err() error {
	if r.Mismatched > 0 {
		return fmt.Errorf("%w: %d of %d pairs diverged", ErrReplayMismatch, r.Mismatched, r.Matched+r.Mismatched)
	}
	return nil
}

// Replay re-executes every deterministic pair of a stored run and
// compares canonical deterministic bytes. onProgress, when non-nil,
// receives per-pair trial progress.
func Replay(ctx context.Context, run *Run, onProgress func(Progress)) (*ReplayReport, error) {
	rep := &ReplayReport{RunID: run.ID}
	deterministic := 0
	for pi := range run.Points {
		p := &run.Points[pi]
		key := p.Config.Key()
		if !p.Config.Deterministic() {
			rep.Points = append(rep.Points, PointReplay{Key: key, Skipped: true})
			rep.Skipped += len(p.Seeds)
			continue
		}
		deterministic++
		pr := PointReplay{Key: key}
		for si := range p.Seeds {
			stored := &p.Seeds[si]
			cfg := p.Config
			cfg.Seed = stored.Seed
			var report func(done, total int)
			if onProgress != nil {
				report = func(done, total int) {
					onProgress(Progress{
						Point: pi, Points: len(run.Points),
						Seed: cfg.Seed, SeedIndex: si, Seeds: len(p.Seeds),
						Done: done, Total: total, Key: key,
					})
				}
			}
			fresh, _, err := RunSeed(ctx, cfg, nil, report)
			if err != nil {
				return nil, fmt.Errorf("campaign: replay point %d seed %d: %w", pi, cfg.Seed, err)
			}
			sr := SeedReplay{Seed: stored.Seed}
			sr.Match, sr.Detail = compareReplay(stored, &fresh)
			if sr.Match {
				rep.Matched++
			} else {
				rep.Mismatched++
			}
			pr.Seeds = append(pr.Seeds, sr)
		}
		rep.Points = append(rep.Points, pr)
	}
	if deterministic == 0 {
		return nil, ErrNotReplayable
	}
	return rep, nil
}

// compareReplay checks a fresh re-execution against the stored result.
// With stored trial rows the comparison is the full deterministic
// digest; without them (DropTrials runs) it is the deterministic
// aggregates alone.
func compareReplay(stored, fresh *SeedResult) (bool, string) {
	if len(stored.Trials) == 0 {
		a := canonicalJSON(stored.Aggregates.Deterministic)
		b := canonicalJSON(fresh.Aggregates.Deterministic)
		if bytes.Equal(a, b) {
			return true, ""
		}
		return false, "deterministic aggregates diverged (run stored no trial rows)"
	}
	if bytes.Equal(stored.DeterministicDigest(), fresh.DeterministicDigest()) {
		return true, ""
	}
	// Localize the first divergent trial for the report.
	n := len(stored.Trials)
	if len(fresh.Trials) < n {
		n = len(fresh.Trials)
	}
	for i := 0; i < n; i++ {
		s, f := stored.Trials[i], fresh.Trials[i]
		s.Latency, f.Latency = 0, 0
		if !bytes.Equal(canonicalJSON(s), canonicalJSON(f)) {
			return false, fmt.Sprintf("trial %d: stored %s, replayed %s", i, string(canonicalJSON(s)), string(canonicalJSON(f)))
		}
	}
	if len(stored.Trials) != len(fresh.Trials) {
		return false, fmt.Sprintf("trial count: stored %d, replayed %d", len(stored.Trials), len(fresh.Trials))
	}
	return false, "deterministic aggregates diverged"
}
