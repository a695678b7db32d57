package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy"
)

// Span names, one per seam the harness can observe from outside.
const (
	spanExec          = "exec"           // one Executor.Execute call
	spanClientVariant = "client_variant" // one variant handed to the executor
	spanServerVariant = "server_variant" // one replica-side variant call
	spanDial          = "dial"           // one DialFunc call
	spanConnWrite     = "conn_write"     // one client conn.Write
	spanConnRead      = "conn_read"      // one client conn.Read
)

// noSeq marks a span that no request sequence number can be read from:
// the dial and conn seams see bytes, not inputs.
const noSeq = -1

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. Seq is the sequence number the request's input
// carries, which is what ties the spans of one request together; conn
// spans carry the dial that opened their connection instead.
type span struct {
	Name  string `json:"name"`
	Seq   int64  `json:"seq"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the causing span in the written file, -1
	// for a root. It is resolved by link, not while recording.
	Parent int    `json:"parent"`
	Where  string `json:"where,omitempty"` // variant or endpoint name
	Failed bool   `json:"failed,omitempty"`
	conn   int64  // dial ordinal; links conn spans to their dial span
}

// tracer collects spans and seam counters for one traced run. Counters
// are exact over every request; spans are kept for one request in
// stride (chosen from the rate the untraced half ran at, so a run keeps
// about tracedRequestTarget requests' worth), which bounds memory and
// the trace file at any request rate.
type tracer struct {
	epoch  time.Time
	stride uint64 // fixed before any shim can run

	mu      sync.Mutex
	buf     []byte   // off-heap span records, spanBytes each
	n       int      // records in buf
	dropped int      // spans that found buf full
	names   []string // Name and Where strings; a record holds indexes

	dialSeq atomic.Int64 // numbers connections; never reset, so ids stay unique

	// Seam counters, exact over the traced window.
	clientVariantCalls atomic.Int64
	serverVariantCalls atomic.Int64
	dials              atomic.Int64
	connWrites         atomic.Int64
	connReads          atomic.Int64
	connOps            atomic.Uint64 // sampling counter for conn spans
	wireBytes          atomic.Int64
	writeBlockNs       atomic.Int64
	readBlockNs        atomic.Int64
}

const (
	// tracedRequestTarget is how many requests' spans one traced run
	// aims to keep; enough for stable medians, small enough that the
	// trace file stays a few megabytes on the fastest workload.
	tracedRequestTarget = 10000
	// spanCapacity is how many spans fit; a request leaves 4 to 13.
	spanCapacity = 16 * tracedRequestTarget
	// spanBytes is one record: name, where, failed, then seq, start,
	// end and conn as 8 bytes each.
	spanBytes = 40
)

// newTracer returns a tracer that keeps the spans of one request in
// stride, the stride chosen so that a window of the given length at the
// given request rate keeps about tracedRequestTarget requests.
func newTracer(ratePerSec, seconds float64) (*tracer, error) {
	buf, err := offHeap(spanCapacity * spanBytes)
	if err != nil {
		return nil, fmt.Errorf("span buffer: %w", err)
	}
	stride := max(1, uint64(ratePerSec*seconds/tracedRequestTarget))
	return &tracer{epoch: time.Now(), stride: stride, buf: buf}, nil
}

// close gives the span buffer back; the tracer records nothing after.
func (t *tracer) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	release(t.buf)
	t.buf = nil
}

// sampled reports whether spans are kept for this sequence number. It
// hashes seq first: seq is client-interleaved, so a plain modulus with
// an even stride would only ever sample one client.
func (t *tracer) sampled(seq uint64) bool { return mix64(seq)%t.stride == 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nameIndex interns a span's Name or Where; mu must be held. There are
// about a dozen distinct strings in a run.
func (t *tracer) nameIndex(s string) byte {
	for i, n := range t.names {
		if n == s {
			return byte(i)
		}
	}
	t.names = append(t.names, s)
	return byte(len(t.names) - 1)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if (t.n+1)*spanBytes > len(t.buf) {
		t.dropped++
		return
	}
	rec := t.buf[t.n*spanBytes:][:spanBytes]
	rec[0], rec[1], rec[2] = t.nameIndex(s.Name), t.nameIndex(s.Where), 0
	if s.Failed {
		rec[2] = 1
	}
	binary.LittleEndian.PutUint64(rec[8:], uint64(s.Seq))
	binary.LittleEndian.PutUint64(rec[16:], uint64(s.Start))
	binary.LittleEndian.PutUint64(rec[24:], uint64(s.End))
	binary.LittleEndian.PutUint64(rec[32:], uint64(s.conn))
	t.n++
}

// reset drops what the warm-up recorded, so counters and spans cover
// the measured window only. Dial spans stay: connections opened during
// the warm-up carry the window's traffic, and their conn spans link to
// them; reset returns how many there are.
func (t *tracer) reset() int {
	t.mu.Lock()
	kept := 0
	for i := 0; i < t.n; i++ {
		rec := t.buf[i*spanBytes:][:spanBytes]
		if t.names[rec[0]] == spanDial {
			copy(t.buf[kept*spanBytes:], rec)
			kept++
		}
	}
	t.n, t.dropped = kept, 0
	t.mu.Unlock()
	t.clientVariantCalls.Store(0)
	t.serverVariantCalls.Store(0)
	t.dials.Store(0)
	t.connWrites.Store(0)
	t.connReads.Store(0)
	t.wireBytes.Store(0)
	t.writeBlockNs.Store(0)
	t.readBlockNs.Store(0)
	return kept
}

// linked returns the recorded spans, linked. It takes the lock: a
// cancelled straggler may have recorded its last conn span on a
// goroutine nothing else synchronises with.
func (t *tracer) linked() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]span, t.n)
	for i := range spans {
		rec := t.buf[i*spanBytes:][:spanBytes]
		spans[i] = span{
			Name:   t.names[rec[0]],
			Where:  t.names[rec[1]],
			Failed: rec[2] == 1,
			Seq:    int64(binary.LittleEndian.Uint64(rec[8:])),
			Start:  int64(binary.LittleEndian.Uint64(rec[16:])),
			End:    int64(binary.LittleEndian.Uint64(rec[24:])),
			conn:   int64(binary.LittleEndian.Uint64(rec[32:])),
		}
	}
	return link(spans)
}

// tracedVariant is the core.Variant seam shim: it times every call of
// the wrapped variant and reads the request's sequence number from the
// input.
type tracedVariant[I, O any] struct {
	inner redundancy.Variant[I, O]
	t     *tracer
	name  string
	calls *atomic.Int64
	seqOf func(I) uint64
}

// traceVariant wraps v with a span per call; with a nil tracer it
// returns v itself, so the untraced run carries no shim at all.
func traceVariant[I, O any](t *tracer, name string, v redundancy.Variant[I, O], seqOf func(I) uint64) redundancy.Variant[I, O] {
	if t == nil {
		return v
	}
	calls := &t.clientVariantCalls
	if name == spanServerVariant {
		calls = &t.serverVariantCalls
	}
	return &tracedVariant[I, O]{inner: v, t: t, name: name, calls: calls, seqOf: seqOf}
}

func (v *tracedVariant[I, O]) Name() string { return v.inner.Name() }

func (v *tracedVariant[I, O]) Execute(ctx context.Context, input I) (O, error) {
	v.calls.Add(1)
	seq := v.seqOf(input)
	if !v.t.sampled(seq) {
		return v.inner.Execute(ctx, input)
	}
	start := v.t.now()
	out, err := v.inner.Execute(ctx, input)
	v.t.record(span{Name: v.name, Seq: int64(seq), Start: start, End: v.t.now(), Where: v.inner.Name(), Failed: err != nil})
	return out, err
}

// traceDial is the DialFunc seam shim: a span and a count per dial, and
// a counting connection around what the dial returns. Nil tracer:
// returns dial itself.
func traceDial(t *tracer, endpoint string, dial redundancy.DialFunc) redundancy.DialFunc {
	if t == nil {
		return dial
	}
	return func(ctx context.Context) (net.Conn, error) {
		t.dials.Add(1)
		id := t.dialSeq.Add(1)
		start := t.now()
		c, err := dial(ctx)
		t.record(span{Name: spanDial, Seq: noSeq, Start: start, End: t.now(), Where: endpoint, Failed: err != nil, conn: id})
		if err != nil {
			return nil, err
		}
		return &tracedConn{Conn: c, t: t, endpoint: endpoint, id: id}, nil
	}
}

// tracedConn is the net.Conn seam shim on the client side of a
// connection: it counts calls, bytes and time blocked in Write and Read.
// It knows nothing about frames, so it survives a wire redesign.
type tracedConn struct {
	net.Conn
	t        *tracer
	endpoint string
	id       int64
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	end := c.t.now()
	c.t.connWrites.Add(1)
	c.t.wireBytes.Add(int64(n))
	c.t.writeBlockNs.Add(end - start)
	c.io(spanConnWrite, start, end, err)
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Read(p)
	end := c.t.now()
	c.t.connReads.Add(1)
	c.t.wireBytes.Add(int64(n))
	c.t.readBlockNs.Add(end - start)
	c.io(spanConnRead, start, end, err)
	return n, err
}

// io keeps one conn span in stride, the same share as request spans.
func (c *tracedConn) io(name string, start, end int64, err error) {
	if mix64(c.t.connOps.Add(1))%c.t.stride != 0 {
		return
	}
	c.t.record(span{Name: name, Seq: noSeq, Start: start, End: end, Where: c.endpoint, Failed: err != nil, conn: c.id})
}

// link orders spans by start time, in place, and resolves each span's
// parent:
// client_variant → the exec span of its seq, server_variant → the
// client_variant of its seq (the only one, on every workload that has
// replicas), conn spans → the dial that opened their connection.
func link(out []span) []span {
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	execOf := map[int64]int{}
	clientOf := map[int64]int{}
	dialOf := map[int64]int{}
	for i, s := range out {
		switch s.Name {
		case spanExec:
			execOf[s.Seq] = i
		case spanClientVariant:
			clientOf[s.Seq] = i
		case spanDial:
			dialOf[s.conn] = i
		}
	}
	parent := func(m map[int64]int, key int64) int {
		if i, ok := m[key]; ok {
			return i
		}
		return -1
	}
	for i := range out {
		switch out[i].Name {
		case spanClientVariant:
			out[i].Parent = parent(execOf, out[i].Seq)
		case spanServerVariant:
			out[i].Parent = parent(clientOf, out[i].Seq)
		case spanConnWrite, spanConnRead:
			out[i].Parent = parent(dialOf, out[i].conn)
		default:
			out[i].Parent = -1
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval its
// children cover (children may overlap each other and may stick out of
// the parent; only the covered part inside the parent is subtracted).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.End - parent.Start - covered
}

// layerTimes are the per-request medians read off a linked trace.
type layerTimes struct {
	patternSelfUs  float64 // exec self time: the pattern executor's own cost
	distOutboundUs float64 // client_variant start → first server_variant start
	distInboundUs  float64 // deciding server_variant end → client_variant end
	variantExecUs  float64 // the variant's own work, replica-side where there is one
	requests       int     // traced requests the medians are over
}

// analyze walks a linked trace. needReplies is how many successful
// replica replies the client waits for before it answers (1 for a
// failover client, n-k for a quorum); the deciding server_variant is
// the needReplies-th successful one to end.
func analyze(spans []span, needReplies int) layerTimes {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self, outbound, inbound, variant, local []float64
	for i, s := range spans {
		switch s.Name {
		case spanExec:
			self = append(self, float64(selfTime(s, children[i]))/1e3)
		case spanClientVariant:
			servers := children[i]
			if len(servers) == 0 {
				local = append(local, float64(s.End-s.Start)/1e3)
				continue
			}
			first := servers[0].Start
			var okEnds []int64
			for _, sv := range servers {
				first = min(first, sv.Start)
				if !sv.Failed {
					okEnds = append(okEnds, sv.End)
					variant = append(variant, float64(sv.End-sv.Start)/1e3)
				}
			}
			outbound = append(outbound, float64(first-s.Start)/1e3)
			sort.Slice(okEnds, func(a, b int) bool { return okEnds[a] < okEnds[b] })
			if len(okEnds) >= needReplies && !s.Failed {
				if d := s.End - okEnds[needReplies-1]; d > 0 {
					inbound = append(inbound, float64(d)/1e3)
				}
			}
		}
	}
	if len(variant) == 0 {
		variant = local // no replica side: the variants run in-process
	}
	return layerTimes{
		patternSelfUs:  median(self),
		distOutboundUs: median(outbound),
		distInboundUs:  median(inbound),
		variantExecUs:  median(variant),
		requests:       len(self),
	}
}

// writeTrace writes the linked spans as one JSON array.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
