package redundancy_test

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	redundancy "github.com/softwarefaults/redundancy"
)

// TestObservationFacade drives an observed executor through the public
// API: collector and trace recorder attached together, the cost model
// read off the collector by executor name, and the HTTP exporter serving
// the results.
func TestObservationFacade(t *testing.T) {
	collector := redundancy.NewCollector()
	traces := redundancy.NewTraceRecorder(8)

	ok := redundancy.NewVariant("ok", func(_ context.Context, x int) (int, error) { return x, nil })
	exec, err := redundancy.NewSequentialAlternatives(
		[]redundancy.Variant[int, int]{ok},
		func(int, int) error { return nil }, nil,
		redundancy.WithObserver(redundancy.CombineObservers(collector, traces)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := exec.Execute(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}

	snap := collector.Snapshot()
	if len(snap) != 1 || snap[0].Requests != 3 || snap[0].Successes != 3 {
		t.Errorf("collector snapshot = %+v", snap)
	}
	if got := traces.Snapshot(); len(got) != 3 || got[0].Outcome != "success" {
		t.Errorf("traces = %+v", got)
	}
	s := collector.Executor("sequential-alternatives")
	if s.ExecutionsPerRequest() != 1 || s.Reliability() != 1 {
		t.Errorf("cost model: %v executions/request, reliability %v", s.ExecutionsPerRequest(), s.Reliability())
	}

	srv := httptest.NewServer(redundancy.ObservationHandler(collector, traces))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `redundancy_requests_total{executor="sequential-alternatives"} 3`) {
		t.Errorf("/metrics output missing request counter:\n%s", body)
	}
}

func TestCombineObserversNil(t *testing.T) {
	if redundancy.CombineObservers(nil, nil) != nil {
		t.Error("all-nil combination should collapse to nil")
	}
	nop := redundancy.NopObserver{}
	if redundancy.CombineObservers(nil, nop) != redundancy.Observer(nop) {
		t.Error("single live observer should be returned as itself")
	}
}
