package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/softwarefaults/redundancy/internal/checkpoint"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/stats"
	"github.com/softwarefaults/redundancy/internal/supervise"
)

// workerState is the durable state of the E23 worker: a running sum and
// an op count, so both data loss and phantom replays are detectable.
type workerState struct {
	Sum   int64
	Count int
}

func applyWorkerOp(s workerState, op int) (workerState, error) {
	return workerState{Sum: s.Sum + int64(op), Count: s.Count + 1}, nil
}

// CrashRun is what one supervised WAL-worker run did.
type CrashRun struct {
	Ops     int  // the workload's size
	Resumed int  // ops the store already held when the run began
	Acked   int  // ops durably acknowledged at exit, Resumed included
	Panics  int  // scheduled kills by panic
	Crashes int  // scheduled kills by crash error
	Lost    bool // an acknowledged write went missing across a restart
	// Supervisor carries the restarts and their MTTR; Store the
	// checkpoint and WAL-replay counts.
	Supervisor, Store obs.ExecutorSnapshot
}

// RunCrashWorker drives a supervised worker over the durable WAL-backed
// store in dir through RecoveryCampaign(seed)'s kill schedule — panics
// and crash errors at schedule-determined ops — and checks after every
// restart that recovery reproduced exactly the acknowledged prefix:
// nothing lost, nothing phantom. A store that already holds ops (a
// reused directory) resumes after them. observer, when non-nil, sees
// every supervisor and store event. E23 and `faultsim -crash` both run
// it.
//
// Kill sites fire once: a retried op succeeds after the restart, the
// Heisenbug behavior that makes reboot-based recovery worthwhile. The
// kill schedule, and hence the restart and replay counts, are pure
// functions of the seed.
func RunCrashWorker(ctx context.Context, seed uint64, dir string, observer obs.Observer) (CrashRun, error) {
	camp := faultmodel.RecoveryCampaign(seed)
	total := camp.Total()
	collector := obs.NewCollector()
	observer = obs.Combine(collector, observer)
	run := CrashRun{Ops: total, Resumed: -1}
	var (
		runner *checkpoint.DurableRunner[workerState, int]
		next   int                  // workload cursor (next op to attempt)
		fired  = make(map[int]bool) // kill sites that already fired
	)
	sup := supervise.New(supervise.Options{
		Name:      "e23-supervisor",
		Intensity: supervise.Intensity{MaxRestarts: total, Window: time.Minute},
		Observer:  observer,
	})
	err := sup.Add(supervise.ChildSpec{
		Name:    "worker",
		Restart: supervise.Transient, // done workload = normal exit
		Init: func(context.Context) error {
			r, err := checkpoint.OpenDurableRunner(dir, workerState{}, applyWorkerOp,
				checkpoint.DurableOptions{
					Name:             "e23-worker",
					SnapshotInterval: 64,
					Observer:         observer,
					WAL:              checkpoint.WALOptions{SegmentBytes: 4096},
				})
			if err != nil {
				return err
			}
			if run.Resumed < 0 {
				run.Resumed = r.State().Count
				run.Acked = run.Resumed
			} else if r.State().Count != run.Acked {
				run.Lost = true
			}
			runner = r
			next = run.Acked
			return nil
		},
		Run: func(ctx context.Context) error {
			for next < total {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				req := uint64(next)
				if !fired[next] && camp.PanicAt(req, "worker") {
					fired[next] = true
					run.Panics++
					panic(fmt.Sprintf("scheduled panic at op %d", next))
				}
				if !fired[next] && camp.CrashAt(req, "worker") {
					fired[next] = true
					run.Crashes++
					return fmt.Errorf("scheduled kill at op %d: %w", next, faultmodel.ErrCrashed)
				}
				if _, err := runner.Step(int(req % 97)); err != nil {
					return err
				}
				run.Acked++
				next++
			}
			return runner.Close()
		},
	})
	if err != nil {
		return CrashRun{}, err
	}
	if err := sup.Serve(ctx); err != nil {
		return CrashRun{}, err
	}
	for _, e := range collector.Snapshot() {
		switch e.Executor {
		case "e23-supervisor":
			run.Supervisor = e
		case "e23-worker":
			run.Store = e
		}
	}
	return run, nil
}

// recoveryExperiment (E23) kills a supervised WAL-backed worker
// mid-workload (RunCrashWorker) and measures what crash-safe recovery
// actually delivers: every acknowledged write survives every kill, the
// worker finishes the full workload, and the supervisor's
// restart-intensity window escalates when a failure is persistent
// rather than transient.
func recoveryExperiment() Experiment {
	return Experiment{
		ID:       "recovery",
		Index:    "E23",
		Artifact: "Section 3.2 (checkpoint-recovery, micro-reboot): crash recovery with measured MTTR",
		Title:    "Crash-safe recovery: supervised WAL-backed worker under kills",
		Run: func(seed uint64) ([]*stats.Table, error) {
			dir, err := os.MkdirTemp("", "e23-recovery-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)

			run, err := RunCrashWorker(context.Background(), seed, dir, nil)
			if err != nil {
				return nil, err
			}
			finalState, replays, err := reopenFinal(dir)
			if err != nil {
				return nil, err
			}
			snap := run.Supervisor
			var wantSum int64
			for i := 0; i < run.Ops; i++ {
				wantSum += int64(uint64(i) % 97)
			}

			outcome := stats.NewTable(
				fmt.Sprintf("Supervised WAL-backed worker under scheduled kills (seed %d)", seed),
				"measure", "value")
			outcome.AddRow("workload ops offered", run.Ops)
			outcome.AddRow("worker kills: panics", run.Panics)
			outcome.AddRow("worker kills: crash errors", run.Crashes)
			outcome.AddRow("supervised restarts", snap.Restarts)
			outcome.AddRow("restarts == kills", yesNo(int(snap.Restarts) == run.Panics+run.Crashes))
			outcome.AddRow("ops acknowledged", run.Acked)
			outcome.AddRow("acked writes lost across restarts", yesNo(run.Lost))
			outcome.AddRow("final state == full workload", yesNo(
				finalState.Count == run.Ops && finalState.Sum == wantSum))
			outcome.AddRow("cold-reopen replays acked suffix only", yesNo(replays >= 0))
			outcome.AddRow("p99 recovery time under 250ms", yesNo(
				snap.MTTR.Count > 0 && snap.MTTR.P99 < 250*time.Millisecond))

			escalation, err := escalationTable()
			if err != nil {
				return nil, err
			}
			return []*stats.Table{outcome, escalation}, nil
		},
	}
}

// reopenFinal opens the store cold, as the next process incarnation
// would, and returns the recovered state.
func reopenFinal(dir string) (workerState, int, error) {
	r, err := checkpoint.OpenDurableRunner(dir, workerState{}, applyWorkerOp,
		checkpoint.DurableOptions{Name: "e23-final"})
	if err != nil {
		return workerState{}, 0, err
	}
	defer r.Close()
	return r.State(), r.Replayed(), nil
}

// escalationTable demonstrates the restart-intensity bound: a child
// whose failure is persistent (a Bohrbug, not a Heisenbug) exhausts its
// restart budget and the supervisor escalates instead of thrashing.
func escalationTable() (*stats.Table, error) {
	collector := obs.NewCollector()
	sup := supervise.New(supervise.Options{
		Name:      "e23-escalation",
		Intensity: supervise.Intensity{MaxRestarts: 2, Window: time.Minute},
		Observer:  collector,
	})
	if err := sup.Add(supervise.ChildSpec{
		Name: "hopeless",
		Run: func(context.Context) error {
			return errors.New("deterministic failure: restart cannot help")
		},
	}); err != nil {
		return nil, err
	}
	err := sup.Serve(context.Background())

	snap := collector.Executor("e23-escalation")
	t := stats.NewTable(
		"Restart-intensity escalation on a persistent failure (budget 2/min)",
		"measure", "value")
	t.AddRow("restarts before giving up", snap.Restarts)
	t.AddRow("supervisor escalated", yesNo(errors.Is(err, supervise.ErrEscalated)))
	t.AddRow("escalations raised", snap.Escalations)
	return t, nil
}
