package rejuv

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/xrand"
)

// rejuvObserver captures observation events for assertions.
type rejuvObserver struct {
	mu       sync.Mutex
	execs    []string
	ends     int
	outcomes []obs.Outcome
	variants []string
	errs     int
	adjs     []struct{ accepted, detected bool }
	rolls    int
}

func (r *rejuvObserver) RequestStart(executor string, _ uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.execs = append(r.execs, executor)
}

func (r *rejuvObserver) RequestEnd(_ string, _ uint64, _ time.Duration, o obs.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends++
	r.outcomes = append(r.outcomes, o)
}

func (r *rejuvObserver) VariantStart(string, string, uint64) {}

func (r *rejuvObserver) VariantEnd(_, variant string, _ uint64, _ time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.variants = append(r.variants, variant)
	if err != nil {
		r.errs++
	}
}

func (r *rejuvObserver) Adjudicated(_ string, _ uint64, accepted, detected bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adjs = append(r.adjs, struct{ accepted, detected bool }{accepted, detected})
}

func (r *rejuvObserver) ComponentDisabled(string, string, uint64) {}

func (r *rejuvObserver) RetryAttempt(string, string, uint64, int) {}

func (r *rejuvObserver) Rollback(string, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rolls++
}

// alwaysAging activates on every request with age >= 1 (age reaches 1 on
// the first request's tick).
func alwaysAging() faultmodel.AgingFault {
	return faultmodel.AgingFault{ID: 9, HazardAtScale: 1, Scale: 1, Shape: 1}
}

func TestRejuvenatorObserverRollbackOnRejuvenation(t *testing.T) {
	rec := &rejuvObserver{}
	r, err := NewRejuvenator(identity(), faultmodel.AgingFault{}, PeriodicPolicy{Every: 1}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r.SetObserver(rec)
	// First request ages the process to 1; the second rejuvenates first.
	for i := 0; i < 2; i++ {
		if _, err := r.Execute(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	if rec.rolls != 1 || r.Rejuvenations() != 1 {
		t.Errorf("rollback events = %d, rejuvenations = %d", rec.rolls, r.Rejuvenations())
	}
	if len(rec.execs) != 2 || rec.execs[0] != "rejuvenator" {
		t.Errorf("request spans = %v", rec.execs)
	}
	for i, a := range rec.adjs {
		if !a.accepted || a.detected {
			t.Errorf("adjudication %d = %+v", i, a)
		}
	}
	if rec.outcomes[0] != obs.OutcomeSuccess || rec.outcomes[1] != obs.OutcomeSuccess {
		t.Errorf("outcomes = %v", rec.outcomes)
	}
}

func TestRejuvenatorObserverAgingFailureDetected(t *testing.T) {
	rec := &rejuvObserver{}
	r, err := NewRejuvenator(identity(), alwaysAging(), NeverPolicy{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r.SetObserver(rec)
	if _, err := r.Execute(context.Background(), 1); err == nil {
		t.Fatal("want aging failure")
	}
	// The fault preempts the variant, but one execution is still reported.
	if len(rec.variants) != 1 || rec.variants[0] != "svc" || rec.errs != 1 {
		t.Errorf("variant events = %v, errs = %d", rec.variants, rec.errs)
	}
	if len(rec.adjs) != 1 || rec.adjs[0].accepted || !rec.adjs[0].detected {
		t.Errorf("adjudication = %+v", rec.adjs)
	}
	if rec.outcomes[0] != obs.OutcomeFailed {
		t.Errorf("outcome = %v", rec.outcomes[0])
	}
}

func TestRejuvenatorObserverPlainVariantErrorNotAdjudicated(t *testing.T) {
	rec := &rejuvObserver{}
	broken := core.NewVariant("broken", func(context.Context, int) (int, error) {
		return 0, errors.New("app error")
	})
	r, err := NewRejuvenator(broken, faultmodel.AgingFault{}, NeverPolicy{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r.SetObserver(rec)
	if _, err := r.Execute(context.Background(), 1); err == nil {
		t.Fatal("want variant error")
	}
	// Rejuvenation is preventive: it has no failure detector, so a plain
	// variant error must not be adjudicated.
	if len(rec.adjs) != 0 {
		t.Errorf("adjudications = %+v, want none", rec.adjs)
	}
	if rec.ends != 1 || rec.outcomes[0] != obs.OutcomeFailed {
		t.Errorf("request end = %d outcome = %v", rec.ends, rec.outcomes)
	}
}

func TestRejuvenatorMetricsOnAgingFailure(t *testing.T) {
	// The cost-model counters on the fault path: one request, one variant
	// execution, one detected failure, one executor failure.
	c := obs.NewCollector()
	r, err := NewRejuvenator(identity(), alwaysAging(), NeverPolicy{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r.SetObserver(c)
	if _, err := r.Execute(context.Background(), 1); err == nil {
		t.Fatal("want aging failure")
	}
	s := c.Executor("rejuvenator")
	if s.Requests != 1 || s.Executions() != 1 || s.FailuresDetected != 1 || s.Failures != 1 {
		t.Errorf("metrics = %+v", s)
	}
}
