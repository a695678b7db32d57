package faultmodel

import (
	"context"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"
)

// pipeDialer returns a NetDial producing client halves of net.Pipe and a
// channel delivering the server halves.
func pipeDialer() (NetDial, <-chan net.Conn) {
	serverSide := make(chan net.Conn, 16)
	dial := func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		serverSide <- server
		return client, nil
	}
	return dial, serverSide
}

// onePhase builds a started campaign with a single long phase.
func onePhase(t *testing.T, seed uint64, phase NetworkPhase) *NetworkCampaign {
	t.Helper()
	if phase.Duration == 0 {
		phase.Duration = Duration(time.Hour)
	}
	nc := &NetworkCampaign{Name: "test", Seed: seed, Phases: []NetworkPhase{phase}}
	if err := nc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	nc.Start()
	return nc
}

func TestNetworkCampaignValidate(t *testing.T) {
	bad := []*NetworkCampaign{
		{Name: "empty"},
		{Name: "zero-duration", Phases: []NetworkPhase{{Name: "p"}}},
		{Name: "bad-prob", Phases: []NetworkPhase{{Name: "p", Duration: Duration(time.Second), Loss: 1.5}}},
		{Name: "overflow", Phases: []NetworkPhase{
			{Name: "a", Duration: Duration(5e18)}, {Name: "b", Duration: Duration(5e18)}}},
		{Name: "negative-spike", Phases: []NetworkPhase{
			{Name: "p", Duration: Duration(time.Second), LatencySpike: 1, SpikeDelay: Duration(-time.Millisecond)}}},
	}
	for _, nc := range bad {
		if err := nc.Validate(); err == nil {
			t.Errorf("campaign %q validated, want error", nc.Name)
		}
	}
	good := DefaultNetworkCampaign(7, "r1")
	if err := good.Validate(); err != nil {
		t.Errorf("default campaign invalid: %v", err)
	}
	if good.Total() <= 0 {
		t.Error("default campaign has no duration")
	}
}

func TestNetworkCampaignPhaseClock(t *testing.T) {
	nc := &NetworkCampaign{Name: "clock", Phases: []NetworkPhase{
		{Name: "only", Duration: Duration(50 * time.Millisecond)},
	}}
	if i, p := nc.PhaseNow(); i != -1 || p != nil {
		t.Fatalf("phase before Start: (%d, %v), want (-1, nil)", i, p)
	}
	if nc.Done() {
		t.Fatal("Done before Start")
	}
	nc.Start()
	if i, p := nc.PhaseNow(); i != 0 || p == nil || p.Name != "only" {
		t.Fatalf("phase after Start: (%d, %v)", i, p)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !nc.Done() {
		if time.Now().After(deadline) {
			t.Fatal("campaign never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if i, p := nc.PhaseNow(); i != -1 || p != nil {
		t.Fatalf("phase after the end: (%d, %v), want (-1, nil)", i, p)
	}
}

func TestPartitionedDialFails(t *testing.T) {
	dial, _ := pipeDialer()
	nc := onePhase(t, 1, NetworkPhase{Name: "cut", Partition: []string{"victim"}})
	faulty := nc.Wrap("victim", dial)
	if _, err := faulty(context.Background()); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial during partition: %v, want ErrPartitioned", err)
	}
	// A different endpoint on the same network is unaffected.
	other := nc.Wrap("bystander", dial)
	conn, err := other(context.Background())
	if err != nil {
		t.Fatalf("bystander dial: %v", err)
	}
	conn.Close()
}

func TestPartitionSwallowsWritesAndStallsReads(t *testing.T) {
	dial, serverSide := pipeDialer()
	// Connect during a clean phase, then the partition begins.
	nc := &NetworkCampaign{Name: "late-cut", Phases: []NetworkPhase{
		{Name: "clean", Duration: Duration(80 * time.Millisecond)},
		{Name: "cut", Duration: Duration(time.Hour), Partition: []string{"victim"}},
	}}
	nc.Start()
	conn, err := nc.Wrap("victim", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	server := <-serverSide
	defer server.Close()
	time.Sleep(100 * time.Millisecond) // enter the partition phase

	// Writes report success but nothing reaches the server.
	if n, err := conn.Write([]byte("into the void")); err != nil || n != 13 {
		t.Fatalf("partitioned write: (%d, %v), want silent success", n, err)
	}
	server.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 64)
	if n, err := server.Read(buf); err == nil {
		t.Fatalf("server received %d bytes through a partition", n)
	}

	// Reads stall until the deadline, then fail as a timeout-like error.
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	if _, err := conn.Read(buf); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned read: %v, want ErrPartitioned", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("partitioned read returned after %v, want it to stall to the deadline", elapsed)
	}
}

func TestLossSwallowsSomeWrites(t *testing.T) {
	dial, serverSide := pipeDialer()
	nc := onePhase(t, 42, NetworkPhase{Name: "lossy", Loss: 0.5})
	conn, err := nc.Wrap("ep", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	server := <-serverSide
	received := make(chan byte, 64)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := server.Read(buf); err != nil {
				close(received)
				return
			}
			received <- buf[0]
		}
	}()
	const writes = 40
	for i := 0; i < writes; i++ {
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	server.Close()
	got := 0
	for range received {
		got++
	}
	if got == 0 || got == writes {
		t.Fatalf("50%% loss delivered %d/%d writes, want strictly between", got, writes)
	}
}

func TestDuplicateAndReorderDeliverBytes(t *testing.T) {
	// Duplication: more bytes arrive than were written.
	dial, serverSide := pipeDialer()
	nc := onePhase(t, 9, NetworkPhase{Name: "dup", Duplicate: 1})
	conn, err := nc.Wrap("ep", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server := <-serverSide
	go func() {
		conn.Write([]byte("A"))
		conn.Write([]byte("B"))
	}()
	buf := make([]byte, 8)
	total := ""
	server.SetReadDeadline(time.Now().Add(time.Second))
	for len(total) < 4 {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q so far)", err, total)
		}
		total += string(buf[:n])
	}
	if total != "AABB" {
		t.Fatalf("duplication delivered %q, want AABB", total)
	}
	conn.Close()
	server.Close()

	// Reordering: a held frame departs after its successor.
	dial2, serverSide2 := pipeDialer()
	nc2 := onePhase(t, 3, NetworkPhase{Name: "swap", Reorder: 1})
	conn2, err := nc2.Wrap("ep", dial2)(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn2.Close()
	server2 := <-serverSide2
	defer server2.Close()
	go func() {
		conn2.Write([]byte("1")) // held back
		conn2.Write([]byte("2")) // reorder=1 wants to hold this too, but one slot: flushes 2 then 1
	}()
	total = ""
	server2.SetReadDeadline(time.Now().Add(time.Second))
	for len(total) < 2 {
		n, err := server2.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q so far)", err, total)
		}
		total += string(buf[:n])
	}
	if total != "21" {
		t.Fatalf("reordering delivered %q, want 21", total)
	}
}

// TestDeadlineUnblocksStuckWrite: a past deadline set while a disturbed
// Write is blocked on an unread pipe must land at once and fail that
// Write — it is how a client's timer or cancellation frees the attempt.
func TestDeadlineUnblocksStuckWrite(t *testing.T) {
	for _, phase := range []NetworkPhase{
		{Name: "duplicate", Duplicate: 1},
		{Name: "clean"},
	} {
		t.Run(phase.Name, func(t *testing.T) {
			dial, serverSide := pipeDialer()
			conn, err := onePhase(t, 4, phase).Wrap("ep", dial)(context.Background())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			server := <-serverSide // never read
			defer server.Close()
			wrote := make(chan error, 1)
			go func() {
				_, err := conn.Write([]byte("stuck"))
				wrote <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the Write block holding the write lock
			set := make(chan struct{})
			go func() {
				conn.SetDeadline(time.Unix(1, 0))
				close(set)
			}()
			select {
			case <-set:
			case <-time.After(100 * time.Millisecond):
				t.Fatal("SetDeadline waited behind a blocked Write")
			}
			select {
			case err := <-wrote:
				if err == nil {
					t.Fatal("Write blocked on an unread pipe succeeded after a past deadline")
				}
			case <-time.After(time.Second):
				t.Fatal("Write still blocked after a past deadline")
			}
		})
	}
}

func TestResetTearsConnectionDown(t *testing.T) {
	dial, serverSide := pipeDialer()
	nc := onePhase(t, 5, NetworkPhase{Name: "resets", Resets: 1})
	conn, err := nc.Wrap("ep", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	server := <-serverSide
	defer server.Close()
	if _, err := conn.Write([]byte("doomed")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("write under resets=1: %v, want ErrConnReset", err)
	}
	// The connection is dead for good, not just for one write.
	if _, err := conn.Write([]byte("still doomed")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("write after reset: %v, want ErrConnReset", err)
	}
}

func TestLatencySpikeDelaysWrite(t *testing.T) {
	dial, serverSide := pipeDialer()
	nc := onePhase(t, 8, NetworkPhase{
		Name: "spiky", LatencySpike: 1, SpikeDelay: Duration(60 * time.Millisecond),
	})
	conn, err := nc.Wrap("ep", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	server := <-serverSide
	defer server.Close()
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := conn.Write([]byte("slow")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("spiked write took %v, want >= ~60ms", elapsed)
	}
}

func TestWrapIsInertBeforeStartAndAfterEnd(t *testing.T) {
	dial, serverSide := pipeDialer()
	nc := &NetworkCampaign{Name: "inert", Phases: []NetworkPhase{
		{Name: "cut", Duration: Duration(30 * time.Millisecond), Partition: []string{"ep"}, Loss: 1},
	}}
	// Before Start: clean.
	conn, err := nc.Wrap("ep", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial before Start: %v", err)
	}
	server := <-serverSide
	go func() {
		buf := make([]byte, 8)
		server.Read(buf)
		server.Close()
	}()
	if _, err := conn.Write([]byte("ok")); err != nil {
		t.Fatalf("write before Start: %v", err)
	}
	conn.Close()

	// After the campaign ends: clean again.
	nc.Start()
	deadline := time.Now().Add(2 * time.Second)
	for !nc.Done() {
		if time.Now().After(deadline) {
			t.Fatal("campaign never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	conn2, err := nc.Wrap("ep", dial)(context.Background())
	if err != nil {
		t.Fatalf("dial after end: %v", err)
	}
	defer conn2.Close()
	server2 := <-serverSide
	defer server2.Close()
	go func() {
		buf := make([]byte, 8)
		server2.Read(buf)
	}()
	if _, err := conn2.Write([]byte("ok")); err != nil {
		t.Fatalf("write after end: %v", err)
	}
}

func TestParseNetworkCampaign(t *testing.T) {
	spec := `{
		"name": "from-json",
		"seed": 11,
		"phases": [
			{"name": "calm", "duration": "100ms"},
			{"name": "rough", "duration": "200ms", "loss": 0.1, "partition": ["r2"]}
		]
	}`
	nc, err := ParseNetworkCampaign([]byte(spec))
	if err != nil {
		t.Fatalf("ParseNetworkCampaign: %v", err)
	}
	if nc.Name != "from-json" || len(nc.Phases) != 2 || nc.Phases[1].Loss != 0.1 {
		t.Fatalf("parsed campaign mismatch: %+v", nc)
	}
	if nc.Total() != 300*time.Millisecond {
		t.Fatalf("Total: %v, want 300ms", nc.Total())
	}
	if _, err := ParseNetworkCampaign([]byte(`{"name":"x","phases":[{"bogus":1}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseNetworkCampaign([]byte(`{"name":"x","phases":[]}`)); err == nil ||
		!strings.Contains(err.Error(), "no phases") {
		t.Fatalf("empty phases: %v, want 'no phases' error", err)
	}
}

func TestNetworkRollIsDeterministic(t *testing.T) {
	a := &NetworkCampaign{Seed: 123}
	b := &NetworkCampaign{Seed: 123}
	c := &NetworkCampaign{Seed: 456}
	same, diff := 0, 0
	for op := uint64(0); op < 200; op++ {
		ra := a.roll(1, netKindLoss, op, "ep", 0.5)
		if rb := b.roll(1, netKindLoss, op, "ep", 0.5); ra != rb {
			t.Fatalf("same seed diverged at op %d", op)
		}
		if rc := c.roll(1, netKindLoss, op, "ep", 0.5); ra == rc {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// FuzzParseNetworkCampaign: the network schedule parser never panics,
// and a schedule it accepts re-validates, runs for a positive duration
// equal to its phase sum, and holds only probabilities in [0,1] and
// non-negative durations.
func FuzzParseNetworkCampaign(f *testing.F) {
	for _, spec := range []string{
		`{"name":"n","seed":3,"phases":[{"name":"cut","duration":"400ms","partition":["r2"]}]}`,
		`{"phases":[{"name":"a","duration":5000000000000000000},{"name":"b","duration":5000000000000000000}]}`,
		`{"phases":[{"name":"a","duration":"1s","latency_spike":0.5,"spike_delay":"-1ms"}]}`,
		`{"phases":[{"name":"a","duration":"1s","loss":0.1,"duplicate":0.1,"reorder":0.1,"resets":0.1}]}`,
		`{"phases":[]}`, `{}`, `[]`, ``,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := ParseNetworkCampaign(data)
		if err != nil {
			return
		}
		if err := nc.Validate(); err != nil {
			t.Fatalf("accepted schedule fails re-validation: %v", err)
		}
		sum := new(big.Int)
		for _, p := range nc.Phases {
			sum.Add(sum, big.NewInt(int64(p.Duration)))
			if p.Duration <= 0 || p.SpikeDelay < 0 {
				t.Fatalf("phase %q: duration %v, spike_delay %v accepted", p.Name, p.Duration.D(), p.SpikeDelay.D())
			}
			for _, prob := range []float64{p.Loss, p.Duplicate, p.Reorder, p.LatencySpike, p.Resets} {
				if !(prob >= 0 && prob <= 1) {
					t.Fatalf("phase %q: probability %v accepted", p.Name, prob)
				}
			}
		}
		if got := nc.Total(); got <= 0 || big.NewInt(int64(got)).Cmp(sum) != 0 {
			t.Fatalf("Total() = %v, phase sum %v ns", got, sum)
		}
	})
}
