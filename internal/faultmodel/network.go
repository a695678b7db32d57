package faultmodel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the network half of the fault model: where campaign.go
// disturbs variant executions (wrong results, errors, hangs, panics),
// NetworkCampaign disturbs the transport between a client and its
// process replicas — partitions, packet loss, duplication, reordering,
// latency spikes, and connection resets. It wraps the dial function an
// internal/dist client or failure detector uses, so the injected faults
// exercise the real framing, pooling, hedging, and heartbeat paths.
//
// Phases are wall-clock windows (unlike ChaosPhase's request counts)
// because partitions are a property of elapsed time, not of traffic: a
// failure detector must see an endpoint stay silent across heartbeat
// intervals whether or not requests are flowing. Per-operation decisions
// (drop this write? duplicate it?) remain pure seeded hashes, so two
// runs of the same campaign inject the same faults at the same
// operation indexes.

// Sentinel errors of the network fault injector.
var (
	// ErrPartitioned reports a dial or I/O operation on an endpoint cut
	// off by the current campaign phase.
	ErrPartitioned = errors.New("faultmodel: endpoint partitioned")
	// ErrConnReset reports an injected connection reset.
	ErrConnReset = errors.New("faultmodel: connection reset by chaos")
)

// NetDial opens one connection to a named endpoint. It is an alias for
// the bare function signature (not a distinct named type) so values flow
// freely between here and internal/dist's DialFunc without conversions,
// while the fault model stays independent of the transport package.
type NetDial = func(ctx context.Context) (net.Conn, error)

// NetworkPhase is one wall-clock window of network weather. All
// probabilities are per write operation; Partition is absolute (every
// operation against a listed endpoint fails or stalls for the whole
// phase).
type NetworkPhase struct {
	// Name labels the phase in output.
	Name string `json:"name"`
	// Duration is how long the phase lasts.
	Duration Duration `json:"duration"`
	// Partition lists endpoint names cut off during this phase: dials
	// fail, writes vanish, reads block (until deadline) — silence, not
	// errors, which is what makes partitions hard and heartbeats useful.
	Partition []string `json:"partition,omitempty"`
	// Loss is the probability a written frame silently vanishes.
	Loss float64 `json:"loss,omitempty"`
	// Duplicate is the probability a written frame is delivered twice.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a written frame is held back and
	// delivered after the following one.
	Reorder float64 `json:"reorder,omitempty"`
	// LatencySpike is the probability a write stalls for SpikeDelay
	// before delivery.
	LatencySpike float64 `json:"latency_spike,omitempty"`
	// SpikeDelay is the injected stall; zero with LatencySpike set means
	// 50ms.
	SpikeDelay Duration `json:"spike_delay,omitempty"`
	// Resets is the probability a write tears the connection down
	// instead of delivering.
	Resets float64 `json:"resets,omitempty"`
}

// partitions reports whether the phase cuts off endpoint.
func (p *NetworkPhase) partitions(endpoint string) bool {
	for _, name := range p.Partition {
		if name == endpoint {
			return true
		}
	}
	return false
}

// NetworkCampaign is a seeded, phased schedule of network faults. Wrap
// the dialers of the endpoints under test, Start the clock, and drive
// traffic; the campaign decides per phase and per operation what the
// network does to each frame.
type NetworkCampaign struct {
	// Name labels the campaign in output.
	Name string `json:"name"`
	// Seed makes every per-operation decision deterministic.
	Seed uint64 `json:"seed"`
	// Phases run in order; after the last one the network is clean.
	Phases []NetworkPhase `json:"phases"`

	// start is the wall-clock origin set by Start; the zero value means
	// the campaign has not begun and injects nothing.
	start atomic.Int64
	// ops numbers write operations campaign-wide for seeded decisions.
	ops atomic.Uint64
}

// Validate checks the campaign is well formed.
func (nc *NetworkCampaign) Validate() error {
	if len(nc.Phases) == 0 {
		return fmt.Errorf("faultmodel: network campaign %q has no phases", nc.Name)
	}
	var total time.Duration
	for i := range nc.Phases {
		p := &nc.Phases[i]
		if p.Duration.D() <= 0 {
			return fmt.Errorf("faultmodel: network phase %d (%q) needs a positive duration", i, p.Name)
		}
		// Total must stay in range: the phase clock compares against it.
		if p.Duration.D() > math.MaxInt64-total {
			return fmt.Errorf("faultmodel: network campaign %q runs longer than %v", nc.Name, time.Duration(math.MaxInt64))
		}
		total += p.Duration.D()
		if p.SpikeDelay < 0 {
			return fmt.Errorf("faultmodel: network phase %d (%q) has negative spike_delay %v", i, p.Name, p.SpikeDelay.D())
		}
		for _, prob := range []struct {
			name  string
			value float64
		}{
			{"loss", p.Loss}, {"duplicate", p.Duplicate}, {"reorder", p.Reorder},
			{"latency_spike", p.LatencySpike}, {"resets", p.Resets},
		} {
			if !(prob.value >= 0 && prob.value <= 1) {
				return fmt.Errorf("faultmodel: network phase %d (%q): %s %v out of [0,1]",
					i, p.Name, prob.name, prob.value)
			}
		}
	}
	return nil
}

// Total returns the campaign's scheduled duration.
func (nc *NetworkCampaign) Total() time.Duration {
	var total time.Duration
	for i := range nc.Phases {
		total += nc.Phases[i].Duration.D()
	}
	return total
}

// Start begins the campaign clock. Faults inject only between Start and
// the end of the last phase. Calling Start again restarts the schedule.
func (nc *NetworkCampaign) Start() {
	nc.start.Store(time.Now().UnixNano())
}

// Done reports whether the campaign has run past its last phase.
func (nc *NetworkCampaign) Done() bool {
	start := nc.start.Load()
	if start == 0 {
		return false
	}
	return time.Since(time.Unix(0, start)) >= nc.Total()
}

// PhaseNow returns the currently active phase and its index, or (-1,
// nil) when the campaign is not running (not started, or finished).
func (nc *NetworkCampaign) PhaseNow() (int, *NetworkPhase) {
	start := nc.start.Load()
	if start == 0 {
		return -1, nil
	}
	elapsed := time.Since(time.Unix(0, start))
	for i := range nc.Phases {
		d := nc.Phases[i].Duration.D()
		if elapsed < d {
			return i, &nc.Phases[i]
		}
		elapsed -= d
	}
	return -1, nil
}

// roll is the seeded per-operation decision, mirroring Campaign.roll: a
// pure hash of (seed, phase, kind, operation, endpoint), stable across
// runs and immune to goroutine scheduling.
func (nc *NetworkCampaign) roll(phase int, kind uint64, op uint64, endpoint string, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := nc.Seed
	h ^= mix(uint64(phase+1) * 0x9e3779b97f4a7c15)
	h ^= mix(kind * 0xbf58476d1ce4e5b9)
	h ^= mix(op*2 + 1)
	h ^= HashString(endpoint)
	return float64(mix(h))/float64(math.MaxUint64) < prob
}

// Disturbance kinds for the roll hash (distinct streams per fault type).
const (
	netKindLoss = iota + 100
	netKindDuplicate
	netKindReorder
	netKindSpike
	netKindReset
)

// Wrap decorates dial so connections to endpoint suffer the campaign's
// scheduled faults. Wrapping is cheap and safe before Start: a campaign
// that never starts injects nothing.
func (nc *NetworkCampaign) Wrap(endpoint string, dial NetDial) NetDial {
	return func(ctx context.Context) (net.Conn, error) {
		if _, p := nc.PhaseNow(); p != nil && p.partitions(endpoint) {
			// A partitioned dial fails like a SYN that never comes back:
			// after a moment, not instantly, so tight retry loops cannot
			// spin at full speed against a dead endpoint.
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%w: %s", ErrPartitioned, endpoint)
		}
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return &faultyConn{Conn: conn, campaign: nc, endpoint: endpoint}, nil
	}
}

// faultyConn injects the campaign's per-operation faults into one
// connection. Writes are the injection point — the transport sends one
// frame per Write call, so loss, duplication, and reordering operate on
// whole frames; reads only model the partition (silence).
type faultyConn struct {
	net.Conn
	campaign *NetworkCampaign
	endpoint string

	// mu serializes writes; Write holds it while blocked on the
	// underlying connection.
	mu sync.Mutex
	// held is a frame delayed by a reorder decision; it is delivered
	// after the next write (or dropped with the connection).
	held  []byte
	reset bool

	// deadlineMu guards readDeadline alone, never mu's state: setting a
	// deadline must not wait behind a blocked Write, or the deadline
	// meant to unblock that Write never lands.
	deadlineMu sync.Mutex
	// readDeadline shadows the underlying read deadline so a partitioned
	// read can honor it without touching the real connection.
	readDeadline time.Time
}

// Write implements net.Conn, applying the current phase's fault rolls to
// the frame.
func (c *faultyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, fmt.Errorf("write: %w", ErrConnReset)
	}
	phase, p := c.campaign.PhaseNow()
	if p == nil {
		return c.flush(b)
	}
	if p.partitions(c.endpoint) {
		// Swallow silently: the sender sees success, nothing arrives.
		return len(b), nil
	}
	op := c.campaign.ops.Add(1)
	if c.campaign.roll(phase, netKindReset, op, c.endpoint, p.Resets) {
		c.reset = true
		c.Conn.Close()
		return 0, fmt.Errorf("write: %w", ErrConnReset)
	}
	if c.campaign.roll(phase, netKindSpike, op, c.endpoint, p.LatencySpike) {
		delay := p.SpikeDelay.D()
		if delay <= 0 {
			delay = 50 * time.Millisecond
		}
		c.mu.Unlock()
		time.Sleep(delay)
		c.mu.Lock()
		if c.reset {
			return 0, fmt.Errorf("write: %w", ErrConnReset)
		}
	}
	if c.campaign.roll(phase, netKindLoss, op, c.endpoint, p.Loss) {
		return len(b), nil // lost in transit; the sender cannot tell
	}
	if c.campaign.roll(phase, netKindReorder, op, c.endpoint, p.Reorder) && c.held == nil {
		// Hold this frame back; it departs after the next one.
		c.held = append([]byte(nil), b...)
		return len(b), nil
	}
	if c.campaign.roll(phase, netKindDuplicate, op, c.endpoint, p.Duplicate) {
		if _, err := c.Conn.Write(b); err != nil {
			return 0, err
		}
	}
	return c.flush(b)
}

// flush writes b and then any frame held back by a reorder decision —
// the swap that delivers frames out of order.
func (c *faultyConn) flush(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if err != nil {
		return n, err
	}
	if c.held != nil {
		held := c.held
		c.held = nil
		if _, err := c.Conn.Write(held); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read implements net.Conn. A partition is silence: while it lasts, Read
// polls instead of reading, returning only on deadline (timeout) — never
// an early error a client could react to faster than a real partition
// would allow.
func (c *faultyConn) Read(b []byte) (int, error) {
	for {
		if _, p := c.campaign.PhaseNow(); p == nil || !p.partitions(c.endpoint) {
			return c.Conn.Read(b)
		}
		c.deadlineMu.Lock()
		deadline := c.readDeadline
		c.deadlineMu.Unlock()
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, fmt.Errorf("read: %w: deadline exceeded", ErrPartitioned)
		}
		time.Sleep(time.Millisecond)
	}
}

// SetDeadline implements net.Conn, shadowing the read deadline for
// partitioned reads. It never waits for a Write in progress, so a past
// deadline unblocks one stuck on the underlying connection.
func (c *faultyConn) SetDeadline(t time.Time) error {
	c.shadowReadDeadline(t)
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *faultyConn) SetReadDeadline(t time.Time) error {
	c.shadowReadDeadline(t)
	return c.Conn.SetReadDeadline(t)
}

func (c *faultyConn) shadowReadDeadline(t time.Time) {
	c.deadlineMu.Lock()
	c.readDeadline = t
	c.deadlineMu.Unlock()
}

// ParseNetworkCampaign decodes and validates a JSON network campaign.
func ParseNetworkCampaign(data []byte) (*NetworkCampaign, error) {
	var nc NetworkCampaign
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&nc); err != nil {
		return nil, fmt.Errorf("faultmodel: bad network campaign spec: %w", err)
	}
	if err := nc.Validate(); err != nil {
		return nil, err
	}
	return &nc, nil
}

// DefaultNetworkCampaign is the builtin schedule: clean warmup, a lossy
// degraded stretch, a partition of the victim endpoint long enough for a
// default-tuned failure detector to convict it, a flaky stretch of
// resets and latency spikes, and a clean recovery tail.
func DefaultNetworkCampaign(seed uint64, victim string) *NetworkCampaign {
	return &NetworkCampaign{
		Name: "builtin-net",
		Seed: seed,
		Phases: []NetworkPhase{
			{Name: "warmup", Duration: Duration(300 * time.Millisecond)},
			{Name: "degraded", Duration: Duration(700 * time.Millisecond),
				Loss: 0.05, Duplicate: 0.02, Reorder: 0.02,
				LatencySpike: 0.10, SpikeDelay: Duration(20 * time.Millisecond)},
			{Name: "partition", Duration: Duration(1200 * time.Millisecond),
				Partition: []string{victim}},
			{Name: "flaky", Duration: Duration(700 * time.Millisecond),
				Resets: 0.05, LatencySpike: 0.15, SpikeDelay: Duration(20 * time.Millisecond)},
			{Name: "recovery", Duration: Duration(300 * time.Millisecond)},
		},
	}
}
