package dist

// Torn-read and mutation races on the live-reconfiguration surface the
// control plane drives: SetHedgeAfter and Add/RemoveEndpoint are called
// from the controller's reconciliation goroutine while request
// goroutines are mid-Execute. These tests exist for -race: correctness
// here is "no torn reads, no data races, every request still answered",
// not any particular latency outcome.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestSetHedgeAfterRacesExecute(t *testing.T) {
	network := NewPipeNetwork()
	startReplica(t, network, "h1", double())
	startReplica(t, network, "h2", double())
	remote, err := NewRemote[int, int]("fleet", RemoteConfig{
		CallTimeout: time.Second,
		HedgeAfter:  10 * time.Millisecond,
		MaxHedges:   1,
	},
		Endpoint{Name: "h1", Dial: network.Dial("h1")},
		Endpoint{Name: "h2", Dial: network.Dial("h2")},
	)
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		delays := []time.Duration{time.Millisecond, 50 * time.Millisecond, 5 * time.Millisecond}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			remote.SetHedgeAfter(delays[i%len(delays)])
			if got := remote.HedgeAfter(); got <= 0 {
				t.Errorf("torn HedgeAfter read: %v", got)
				return
			}
		}
	}()

	ctx := context.Background()
	for i := 0; i < 300; i++ {
		got, err := remote.Execute(ctx, i)
		if err != nil {
			t.Fatalf("Execute(%d) under SetHedgeAfter churn: %v", i, err)
		}
		if got != 2*i {
			t.Fatalf("Execute(%d) = %d, want %d", i, got, 2*i)
		}
	}
	close(done)
	wg.Wait()
}

func TestEndpointMutationRacesExecute(t *testing.T) {
	network := NewPipeNetwork()
	for i := 1; i <= 4; i++ {
		startReplica(t, network, fmt.Sprintf("m%d", i), double())
	}
	// m1 and m2 are permanent; m3/m4 are churned in and out while the
	// request loop runs, exercising the copy-on-write endpoint set
	// against in-flight snapshots.
	remote, err := NewRemote[int, int]("fleet", RemoteConfig{
		CallTimeout: time.Second,
	},
		Endpoint{Name: "m1", Dial: network.Dial("m1")},
		Endpoint{Name: "m2", Dial: network.Dial("m2")},
	)
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			name := fmt.Sprintf("m%d", 3+i%2)
			if err := remote.AddEndpoint(Endpoint{Name: name, Dial: network.Dial(name)}); err != nil {
				continue // already present from a previous lap
			}
			if err := remote.RemoveEndpoint(name); err != nil {
				t.Errorf("RemoveEndpoint(%s): %v", name, err)
				return
			}
		}
	}()

	ctx := context.Background()
	for i := 0; i < 300; i++ {
		got, err := remote.Execute(ctx, i)
		if err != nil {
			t.Fatalf("Execute(%d) under endpoint churn: %v", i, err)
		}
		if got != 2*i {
			t.Fatalf("Execute(%d) = %d, want %d", i, got, 2*i)
		}
	}
	close(done)
	wg.Wait()
	if names := remote.Endpoints(); len(names) < 2 {
		t.Fatalf("permanent endpoints lost under churn: %v", names)
	}
}

func TestDetectorMutatorsRaceRecordAndRank(t *testing.T) {
	// The control plane calls Forget (retiring a replaced endpoint) and
	// reads Evidence from its reconciliation goroutine, the ejector
	// files ReportSlow/ClearSlow from request goroutines, and Poll's
	// per-member goroutines call record — all while Remote clients call
	// Rank/State per request. The live setters got this treatment in
	// the PR-9 race tests; this covers the detector mutators.
	det := NewDetector(DetectorConfig{Seed: 11, SuspectAfter: 2, DeadAfter: 5})
	names := []string{"d1", "d2", "d3", "d4"}
	unreachable := func(ctx context.Context) (net.Conn, error) { return nil, ErrReplicaUnavailable }
	for _, name := range names {
		det.Watch(name, unreachable)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	churn := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	churn(func(i int) { // heartbeat outcomes
		det.record(names[i%len(names)], i%3 == 0)
	})
	churn(func(i int) { // controller retiring + re-watching members
		name := names[i%len(names)]
		det.Forget(name)
		det.Watch(name, unreachable)
	})
	churn(func(i int) { // ejector filing and clearing slowness
		name := names[(i+1)%len(names)]
		det.ReportSlow(name)
		det.ClearSlow(name)
	})
	churn(func(i int) { // quorum filing accusations
		det.Accuse(names[(i+2)%len(names)])
	})

	for i := 0; i < 500; i++ {
		ranked := det.Rank("exec", names)
		if len(ranked) != len(names) {
			t.Fatalf("Rank under churn returned %d names, want %d", len(ranked), len(names))
		}
		for _, name := range names {
			misses, accusations, slowness := det.Evidence(name)
			if misses < 0 || accusations < 0 || slowness < 0 {
				t.Fatalf("torn Evidence read for %s: %d/%d/%d", name, misses, accusations, slowness)
			}
			_ = det.State(name)
		}
	}
	close(done)
	wg.Wait()
}

func TestEjectorObserveRacesRouting(t *testing.T) {
	// Request goroutines feed Observe/ObserveCensored while the Execute
	// goroutine consults route/p2cFront and reports read Snapshot.
	e := NewEjector(EjectorConfig{Seed: 5, Threshold: 3, MinSamples: 5, MinKeep: 1, ProbeEvery: 8})
	names := []string{"e1", "e2", "e3"}
	name := func(i int) string { return names[i] }

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			lat := time.Millisecond
			if i%len(names) == 1 {
				lat = 20 * time.Millisecond // e2 limps
			}
			e.Observe(names[i%len(names)], lat)
			e.ObserveCensored(names[i%len(names)], lat/2, i%len(names) == 1)
		}
	}()

	for i := 0; i < 500; i++ {
		order := []int{0, 1, 2}
		class := make([]int, 3)
		if p := e.route(3, name, class); p >= 3 {
			t.Fatalf("route returned out-of-range probe %d", p)
		}
		e.p2cFront(order, class, name)
		seen := 0
		for _, ep := range e.Snapshot() {
			if ep.Samples < 0 {
				t.Fatalf("torn snapshot: %+v", ep)
			}
			seen++
		}
		_ = e.Ejected("e2")
		_ = seen
	}
	close(done)
	wg.Wait()
}
