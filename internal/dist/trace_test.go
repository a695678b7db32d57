// Causal trace propagation over the wire: the client's request span,
// per-attempt envelope spans, and the replica servers' continued spans
// must form one trace, with hedge winners and cancelled losers marked in
// the client's lineage. Run with -race: the lineage is maintained by the
// Execute goroutine while attempts race across goroutines.
package dist

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
)

// startTracedReplica is startReplica with a per-replica trace recorder,
// simulating a separate process exporting its own trace file.
func startTracedReplica(t *testing.T, network *PipeNetwork, name string, v core.Variant[int, int]) *obs.TraceRecorder {
	t.Helper()
	ln, err := network.Listen(name)
	if err != nil {
		t.Fatalf("Listen(%q): %v", name, err)
	}
	rec := obs.NewTraceRecorder(64)
	srv := NewServer(v, ln, ServerConfig{Name: name, Observer: rec})
	go srv.Serve(context.Background())
	t.Cleanup(func() { srv.Close() })
	return rec
}

func TestTracePropagatesThroughHedging(t *testing.T) {
	before := runtime.NumGoroutine()
	network := NewPipeNetwork()
	release := make(chan struct{})
	slowRec := startTracedReplica(t, network, "slow", core.NewVariant("slow",
		func(ctx context.Context, x int) (int, error) {
			select {
			case <-release:
				return x, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}))
	fastRec := startTracedReplica(t, network, "fast", double())
	// On early Fatalf the cleanup's server Close cancels the serve
	// context, which unblocks the slow variant — release is closed on the
	// success path only, before the leak check.

	clientRec := obs.NewTraceRecorder(64)
	collector := obs.NewCollector()
	remote, err := NewRemote[int, int]("hedger", RemoteConfig{
		CallTimeout: 5 * time.Second,
		HedgeAfter:  10 * time.Millisecond,
		Observer:    obs.Combine(collector, clientRec),
	},
		Endpoint{Name: "slow", Dial: network.Dial("slow")},
		Endpoint{Name: "fast", Dial: network.Dial("fast")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()

	// An upstream trace: the client's request span must be its child.
	ctx, caller := obs.StartTrace(context.Background())
	got, err := remote.Execute(ctx, 7)
	if err != nil {
		t.Fatalf("hedged Execute: %v", err)
	}
	if got != 14 {
		t.Fatalf("hedged Execute: got %d want 14 (the hedge's answer)", got)
	}

	// Client side: one trace, child of the caller span, with a full hedge
	// lineage — a cancelled loser on "slow", a winner on "fast".
	ctraces := clientRec.Snapshot()
	if len(ctraces) != 1 {
		t.Fatalf("client recorded %d traces, want 1", len(ctraces))
	}
	ct := ctraces[0]
	if ct.TraceID != caller.TraceID || ct.ParentSpanID != caller.SpanID {
		t.Fatalf("client span (trace %d parent %d) not a child of caller %+v",
			ct.TraceID, ct.ParentSpanID, caller)
	}
	if len(ct.Attempts) != 2 {
		t.Fatalf("client lineage has %d attempts, want 2: %+v", len(ct.Attempts), ct.Attempts)
	}
	var winner, loser *obs.AttemptSpan
	for i := range ct.Attempts {
		if ct.Attempts[i].Won {
			winner = &ct.Attempts[i]
		} else {
			loser = &ct.Attempts[i]
		}
	}
	if winner == nil || loser == nil {
		t.Fatalf("lineage lacks a winner and a loser: %+v", ct.Attempts)
	}
	if winner.Endpoint != "fast" {
		t.Fatalf("winner = %q, want the hedge endpoint \"fast\"", winner.Endpoint)
	}
	if !loser.Cancelled {
		t.Fatalf("losing attempt not marked cancelled: %+v", loser)
	}
	if winner.SpanID == 0 || loser.SpanID == 0 {
		t.Fatalf("attempt spans not stamped: %+v", ct.Attempts)
	}

	// Server side: the winning replica's span shares the client TraceID
	// and names the winning attempt span as its parent. (The cancelled
	// loser's server may or may not commit a trace depending on timing;
	// the winner must.)
	deadline := time.Now().Add(2 * time.Second)
	var st *obs.Trace
	for time.Now().Before(deadline) {
		straces := fastRec.Snapshot()
		if len(straces) > 0 {
			st = &straces[0]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st == nil {
		t.Fatal("winning replica recorded no trace")
	}
	if st.TraceID != caller.TraceID {
		t.Fatalf("server TraceID %d, want client trace %d", st.TraceID, caller.TraceID)
	}
	if st.ParentSpanID != winner.SpanID {
		t.Fatalf("server parent span %d, want winning attempt span %d", st.ParentSpanID, winner.SpanID)
	}
	if st.Executor != "replica:fast" {
		t.Fatalf("server executor %q", st.Executor)
	}
	_ = slowRec

	// Hedge attribution seen by the collector matches the lineage.
	for _, s := range collector.Snapshot() {
		if s.Executor == "hedger" && (s.Hedges == 0 || s.HedgeWins == 0) {
			t.Fatalf("collector missed the hedge: %+v", s)
		}
	}

	// No goroutines may outlive the hedged call (the abandoned loser's
	// goroutine ends with its late reply, or at the latest when Close
	// closes its connection). The two replica accept loops remain by
	// design — the tolerance covers them.
	close(release)
	remote.Close()
	leakDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestUntracedClientForwardsCallerTrace(t *testing.T) {
	// A client with no trace-recording observer still forwards an
	// inherited trace context on the wire, so a traced replica joins the
	// caller's trace.
	network := NewPipeNetwork()
	rec := startTracedReplica(t, network, "r1", double())
	remote, err := NewRemote[int, int]("fwd", RemoteConfig{Observer: obs.NewCollector()},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx, caller := obs.StartTrace(context.Background())
	if _, err := remote.Execute(ctx, 1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if traces := rec.Snapshot(); len(traces) > 0 {
			if traces[0].TraceID != caller.TraceID {
				t.Fatalf("replica trace %d, want caller trace %d", traces[0].TraceID, caller.TraceID)
			}
			if traces[0].ParentSpanID == 0 {
				t.Fatal("replica span has no parent attempt span")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replica recorded no trace")
}

func TestUntracedCallStaysUntraced(t *testing.T) {
	// No trace anywhere: the envelope carries zero trace fields and the
	// traced server starts a fresh root rather than inventing a parent.
	network := NewPipeNetwork()
	rec := startTracedReplica(t, network, "r1", double())
	remote, err := NewRemote[int, int]("plain", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	if _, err := remote.Execute(context.Background(), 1); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if traces := rec.Snapshot(); len(traces) > 0 {
			if traces[0].ParentSpanID != 0 {
				t.Fatalf("untraced call produced parent span %d", traces[0].ParentSpanID)
			}
			if traces[0].TraceID == 0 {
				t.Fatal("traced server did not open a root trace")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("replica recorded no trace")
}
