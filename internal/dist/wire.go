package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"time"
	"unsafe"
)

// Message kinds carried in the envelope.
const (
	kindCall = iota + 1
	kindReply
	kindPing
	kindPong
	// kindAbort is a reply from a server that could not decode the
	// call's input or encode its output: it carries the reason in Err,
	// and the server closes the connection after sending it, because its
	// value streams may no longer match the client's.
	kindAbort
)

// envelope is the one message type of the protocol: the body of a CRC
// frame, in a fixed binary layout —
//
//	1 byte   Kind
//	8 bytes  ID       (big-endian, as every integer here)
//	8 bytes  TraceID
//	8 bytes  SpanID
//	4 bytes  len(Err)
//	         Err
//	         Payload  (the rest of the frame)
//
// Calls carry the encoded input in Payload; replies carry the encoded
// output, or a non-empty Err. Pings and pongs carry nothing but the ID.
//
// TraceID and SpanID propagate the causal trace in-band on calls:
// TraceID names the client's distributed trace and SpanID the client
// attempt span that carried this call, so the server-side request span
// continues the trace as that attempt's child. Both are zero on
// untraced calls and on replies.
type envelope struct {
	Kind    uint8
	ID      uint64
	TraceID uint64
	SpanID  uint64
	Err     string
	Payload []byte
}

// envelopeFixedSize is the size of the envelope's fixed-layout prefix.
const envelopeFixedSize = 1 + 8 + 8 + 8 + 4

// ErrRemote marks a failure reported by the replica server: the variant
// on the far side executed and failed (or panicked — the server contains
// panics with core.Guard). The original error chain does not survive the
// wire; only its message does.
var ErrRemote = errors.New("dist: remote variant failed")

// appendEnvelope appends e's wire form to b.
func appendEnvelope(b []byte, e *envelope) []byte {
	b = append(b, e.Kind)
	b = binary.BigEndian.AppendUint64(b, e.ID)
	b = binary.BigEndian.AppendUint64(b, e.TraceID)
	b = binary.BigEndian.AppendUint64(b, e.SpanID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.Err)))
	b = append(b, e.Err...)
	return append(b, e.Payload...)
}

// parseEnvelope decodes a frame body. The returned Payload aliases
// body; Err is copied out. A body that does not parse is a corrupt
// frame for classification purposes.
func parseEnvelope(body []byte) (envelope, error) {
	if len(body) < envelopeFixedSize {
		return envelope{}, fmt.Errorf("%w: envelope: %d bytes, fixed header needs %d", ErrBadFrame, len(body), envelopeFixedSize)
	}
	e := envelope{
		Kind:    body[0],
		ID:      binary.BigEndian.Uint64(body[1:9]),
		TraceID: binary.BigEndian.Uint64(body[9:17]),
		SpanID:  binary.BigEndian.Uint64(body[17:25]),
	}
	if e.Kind < kindCall || e.Kind > kindAbort {
		return envelope{}, fmt.Errorf("%w: envelope: unknown kind %d", ErrBadFrame, e.Kind)
	}
	errLen := binary.BigEndian.Uint32(body[25:29])
	rest := body[envelopeFixedSize:]
	if uint64(errLen) > uint64(len(rest)) {
		return envelope{}, fmt.Errorf("%w: envelope: error length %d exceeds the %d bytes left in the frame", ErrBadFrame, errLen, len(rest))
	}
	e.Err = string(rest[:errLen])
	e.Payload = rest[errLen:]
	return e, nil
}

// valueCodec is how values of type T travel as a frame's payload. It is
// picked once per client or server, by the type alone (codecFor). A
// plain type (see compilePlain) is appended straight into the frame
// being built and copied back out of the received frame by the program
// compiled from its reflect.Type; it keeps no state between values, so
// a connection that carries only plain values never builds its gob
// streams. Every other type goes through the connection's gob streams
// (sendValue, decode).
//
// Both peers must use the same type: a plain payload carries values,
// not field names or a type descriptor, so it is only as portable as
// the type's layout.
type valueCodec[T any] struct {
	// put and get are nil for a gob-coded type.
	put func(b []byte, v T) []byte
	get func(payload []byte) (T, error)
}

// codecFor returns T's value codec: the plain codec if T is plain, gob
// otherwise. The plain codec reads and writes the value through a
// pointer to the put or get call's own copy of it, so the value never
// escapes to the heap: a value costs only what its strings and slices
// copy.
func codecFor[T any]() valueCodec[T] {
	c, ok := compilePlain(reflect.TypeFor[T](), nil)
	if !ok {
		return valueCodec[T]{}
	}
	return plainValues[T](&c)
}

// plainValues is the value codec that codes T's values with c.
func plainValues[T any](c *plainCodec) valueCodec[T] {
	return valueCodec[T]{
		put: func(b []byte, v T) []byte { return c.put(b, unsafe.Pointer(&v)) },
		get: func(payload []byte) (T, error) {
			var v T
			rest, err := c.get(unsafe.Pointer(&v), payload)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("%w: value: %d trailing bytes", ErrBadFrame, len(rest))
			}
			return v, err
		},
	}
}

// send is c.send with v as the payload (e.Payload must be empty). An
// error wrapping errValueCodec means nothing was written.
func (vc valueCodec[T]) send(c *wireConn, e *envelope, v T) error {
	if vc.put == nil {
		return c.sendValue(e, v)
	}
	c.begin(e)
	c.wbuf = vc.put(c.wbuf, v)
	return c.flush()
}

// recv decodes the value a frame received on c carries. An error wraps
// ErrBadFrame, and the connection must be abandoned.
func (vc valueCodec[T]) recv(c *wireConn, payload []byte) (T, error) {
	if vc.get == nil {
		return decodeGob[T](c, payload)
	}
	return vc.get(payload)
}

// decodeGob is recv's gob path, apart so that only it pays for the
// value escaping into gob.
func decodeGob[T any](c *wireConn, payload []byte) (T, error) {
	v := new(T)
	err := c.decode(payload, v)
	return *v, err
}

// errValueCodec marks a send that failed encoding its value, before
// anything was written: the connection still frames correctly, but its
// outbound value stream has advanced past what the peer has seen.
var errValueCodec = errors.New("dist: encode value")

// wireConn is one connection with its codec state: a buffered reader and
// a reused frame buffer on the way in, one scratch buffer in which each
// outgoing frame is built on the way out, and — for value types that
// go through gob (see valueCodec) — a persistent gob stream per
// direction, so a value type's descriptor crosses the wire once per
// connection rather than once per call.
//
// The gob streams make the connection stateful beyond its bytes: the
// peers' encoder and decoder must have seen the same sequence of
// values. Any event that may have put them out of step — an encode or
// decode error, a reply whose ID does not match the call, an exchange
// expired mid-flight by its deadline or by the caller's cancellation —
// poisons the stream, and a poisoned connection is closed, never pooled
// or read again. An attempt abandoned because its request was decided
// without it is normally not expired: it reads and decodes its reply
// to the end, which keeps the streams in step.
//
// A wireConn is used by one goroutine at a time (the pool hands it out
// exclusively; a server handler owns its own); only the net.Conn
// methods may be called concurrently, as expiry does.
type wireConn struct {
	net.Conn
	br   *bufio.Reader
	rbuf []byte       // body of the last frame read
	wbuf frameBuf     // the frame being sent
	in   bytes.Reader // the payload being decoded
	enc  *gob.Encoder // appends to wbuf
	dec  *gob.Decoder // reads from in
	// timer bounds the exchange in progress (see arm): created on the
	// first one, re-armed for each later one.
	timer *time.Timer
	// jobs is the one-slot queue of the connection's worker: nil until
	// a racing attempt first takes the connection (see assign).
	jobs chan job
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{Conn: c, br: bufio.NewReader(c)}
}

// arm bounds the exchange about to start: at deadline, or when ctx is
// cancelled first, the connection expires — its deadline is pushed into
// the past, so blocked I/O returns at once. The connection's own timer
// does the first; a cancel hook, registered only for a ctx that can be
// cancelled at all, does the second. The returned stop (nil without a
// hook) goes to disarm when the exchange is over.
//
// The connection's deadline is never set otherwise: a connection that
// did not expire has none, which is what lets the pool reuse it as is.
func (c *wireConn) arm(ctx context.Context, deadline time.Time) (stop func() bool) {
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(deadline), c.expire)
	} else {
		c.timer.Reset(time.Until(deadline))
	}
	if ctx.Done() != nil {
		return context.AfterFunc(ctx, c.expire)
	}
	return nil
}

// disarm ends what arm began and reports whether the connection is
// untouched by it: the timer stopped before it fired, and the cancel
// hook, if any, did not run. A connection that expired, or may be
// expiring right now, must not be used again.
func (c *wireConn) disarm(stop func() bool) bool {
	clean := c.timer.Stop()
	if stop != nil && !stop() {
		clean = false
	}
	return clean
}

// assign hands j to the connection's worker, starting the worker if the
// connection has none yet. The caller took the connection from its
// pool, so it alone may touch it and the queue's slot is free: the
// worker took the last job before the connection went back to the pool.
func (c *wireConn) assign(j job) {
	if c.jobs == nil {
		c.jobs = make(chan job, 1)
		go c.work()
	}
	c.jobs <- j
}

// work is the connection's worker: one long-lived goroutine, parked
// between attempts, that runs the racing attempts handed to it, each
// returning the connection to the pool or dropping it, until the
// connection is retired.
func (c *wireConn) work() {
	for j := range c.jobs {
		j.req.runAttempt(j.a)
	}
}

// retire closes a connection that has left its pool for good, and ends
// its worker, if it has one. Only the connection's holder, or the pool
// for an idle one, retires it, so nothing can be handed to the worker
// after.
func (c *wireConn) retire() {
	c.Close()
	if c.jobs != nil {
		close(c.jobs)
	}
}

// expire pushes the connection's deadline into the distant past.
func (c *wireConn) expire() { c.Conn.SetDeadline(time.Unix(1, 0)) }

// frameBuf is the scratch buffer a frame is built in: appended to
// directly, and written to by the gob encoder.
type frameBuf []byte

func (f *frameBuf) Write(p []byte) (int, error) {
	*f = append(*f, p...)
	return len(p), nil
}

// frameHeaderSpace reserves a frame's header in the scratch buffer.
var frameHeaderSpace [frameHeaderSize]byte

// send writes one frame — header and envelope, e.Payload included — in
// one Write call. After any error the connection must be abandoned.
func (c *wireConn) send(e *envelope) error {
	c.begin(e)
	return c.flush()
}

// sendValue is send with value, encoded through the connection's
// outbound stream, as the payload (e.Payload must be empty). An error
// wrapping errValueCodec means nothing was written.
func (c *wireConn) sendValue(e *envelope, value any) error {
	c.begin(e)
	if c.enc == nil {
		c.enc = gob.NewEncoder(&c.wbuf)
	}
	if err := c.enc.Encode(value); err != nil {
		return fmt.Errorf("%w: %v", errValueCodec, err)
	}
	return c.flush()
}

// begin starts a frame in the scratch buffer: reserved header, then
// the envelope.
func (c *wireConn) begin(e *envelope) {
	c.wbuf = appendEnvelope(append(c.wbuf[:0], frameHeaderSpace[:]...), e)
}

// flush seals the frame built in the scratch buffer and writes it.
func (c *wireConn) flush() error {
	frame := c.wbuf
	if err := sealFrame(frame); err != nil {
		return err
	}
	_, err := c.Conn.Write(frame)
	return err
}

// recv reads one frame and parses its envelope. The envelope's Payload
// lives in the connection's read buffer: it is valid until the next
// recv, and decode copies out of it.
func (c *wireConn) recv() (envelope, error) {
	body, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return envelope{}, err
	}
	c.rbuf = body
	return parseEnvelope(body)
}

// decode reads one value from payload through the connection's inbound
// stream into out (a pointer). A payload that does not decode to
// exactly one value is a corrupt frame for classification purposes, and
// the connection must be abandoned. gob copies what it decodes, so out
// keeps no reference to payload.
func (c *wireConn) decode(payload []byte, out any) error {
	c.in.Reset(payload)
	if c.dec == nil {
		c.dec = gob.NewDecoder(&c.in)
	}
	if err := c.dec.Decode(out); err != nil {
		return fmt.Errorf("%w: value: %v", ErrBadFrame, err)
	}
	if n := c.in.Len(); n != 0 {
		return fmt.Errorf("%w: value: %d trailing bytes", ErrBadFrame, n)
	}
	return nil
}
