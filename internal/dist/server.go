package dist

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/resilience"
	"github.com/softwarefaults/redundancy/internal/supervise"
)

// ServerConfig parameterizes a replica server. The zero value selects
// the documented defaults.
type ServerConfig struct {
	// Name identifies the replica in observation events and supervision
	// trees; empty means the variant's name.
	Name string
	// CallTimeout bounds one variant execution on the server side, so a
	// wedged variant cannot pin a connection handler forever: the
	// variant's context carries the deadline and ends there with
	// context.DeadlineExceeded, as under context.WithTimeout. The timer
	// behind it runs only once the variant (or a context derived from
	// it) watches Done; Err reads the clock. Zero means 30 seconds.
	//
	// A variant that watched its context, or derived one from it, sees
	// it end with Canceled when it returns, and it stays ended. One that
	// never watched it costs nothing to reuse: each connection restarts
	// that context for its next call. A variant that keeps such a
	// context past its return, unwatched, may therefore read it as the
	// live context of a later call on the same connection (Err nil, a
	// later Deadline) until that call ends — at most CallTimeout later.
	// Watching it, even after the return, ends the reuse.
	CallTimeout time.Duration
	// Observer receives request/variant spans for served calls under the
	// executor name "replica:<name>"; nil observes nothing.
	Observer obs.Observer
}

// defaultServerCallTimeout backstops servers whose config leaves
// CallTimeout zero.
const defaultServerCallTimeout = 30 * time.Second

// Server exposes one core.Variant as a remote replica: it accepts
// framed connections from a net.Listener and answers calls by executing
// the variant (panic-contained via core.ExecuteGuarded) and pings by
// echoing a pong, which is what the failure detector's heartbeats
// measure.
//
// Connections are handled serially — one in-flight request per
// connection — matching the client's pooled one-round-trip-at-a-time
// discipline; concurrency comes from concurrent connections. Each
// handler keeps the mirror image of the client's per-connection codec
// state (wireConn), and abandons the connection whenever its value
// streams may have fallen out of step with the client's. It keeps its
// last call's context too, and restarts it for the next call unless a
// variant watched it (see ServerConfig.CallTimeout), so serving a call
// whose variant never watches its context allocates nothing for it.
type Server[I, O any] struct {
	variant core.Variant[I, O]
	// executor is "replica:<name>", built once rather than on every
	// call.
	executor string
	ln       net.Listener
	cfg      ServerConfig
	// traced caches obs.WantsTrace(cfg.Observer): server-side spans join
	// the wire trace only when an attached observer records traces.
	traced bool
	// in and out carry the input and output values on the wire.
	in  valueCodec[I]
	out valueCodec[O]

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	cancel context.CancelFunc
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps variant as a replica served from ln.
func NewServer[I, O any](variant core.Variant[I, O], ln net.Listener, cfg ServerConfig) *Server[I, O] {
	if cfg.Name == "" {
		cfg.Name = variant.Name()
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultServerCallTimeout
	}
	return &Server[I, O]{
		variant:  variant,
		executor: "replica:" + cfg.Name,
		ln:       ln,
		cfg:      cfg,
		traced:   obs.WantsTrace(cfg.Observer),
		in:       codecFor[I](),
		out:      codecFor[O](),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Name returns the replica's name.
func (s *Server[I, O]) Name() string { return s.cfg.Name }

// Addr returns the listener's address.
func (s *Server[I, O]) Addr() net.Addr { return s.ln.Addr() }

// Serve runs the accept loop until the context is canceled or the
// server is closed, then waits for all connection handlers to drain.
// A clean shutdown returns nil; an unexpected accept error is returned
// as the failure (the supervision story: a supervisor restarts the
// accept loop via AsChild).
func (s *Server[I, O]) Serve(ctx context.Context) error {
	// In-flight variant executions run under this context so shutdown can
	// cancel them; otherwise Close would block on CallTimeout for every
	// wedged call.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, s.shutdown)
	defer stop()
	base := resilience.NewDeadlineSource(ctx)
	var failure error
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.isClosed() && !errors.Is(err, net.ErrClosed) {
				failure = err
				s.shutdown()
			}
			break
		}
		if !s.track(conn) {
			conn.Close()
			break
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(base, conn)
		}()
	}
	s.wg.Wait()
	if failure != nil {
		return failure
	}
	return nil
}

// Close shuts the server down — listener and all live connections — and
// waits for the handlers to finish. Idempotent.
func (s *Server[I, O]) Close() error {
	s.shutdown()
	s.wg.Wait()
	return nil
}

// AsChild adapts the server into a supervise.ChildSpec so the accept
// loop runs under a supervision tree: a crashed accept loop is a child
// failure the supervisor restarts (the listener itself survives — only
// the loop is re-entered).
func (s *Server[I, O]) AsChild() supervise.ChildSpec {
	return supervise.ChildSpec{
		Name:    "replica-" + s.cfg.Name,
		Restart: supervise.Transient,
		Run:     s.Serve,
	}
}

// shutdown closes the listener and every live connection without
// waiting for handlers; Serve and Close wait.
func (s *Server[I, O]) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	cancel := s.cancel
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	if cancel != nil {
		cancel()
	}
}

// isClosed reports whether shutdown has run.
func (s *Server[I, O]) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a live connection and reserves a slot in the handler
// wait group; false means the server is closed. The wg.Add happens under
// the same lock that shutdown uses to set closed, so no Add can race a
// Wait that follows shutdown.
func (s *Server[I, O]) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

// untrack removes and closes a finished connection.
func (s *Server[I, O]) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// handle serves one connection: framed envelopes in, framed envelopes
// out, until the peer hangs up, the stream corrupts, or the
// connection's value streams are poisoned.
func (s *Server[I, O]) handle(base *resilience.DeadlineSource, conn net.Conn) {
	wc := newWireConn(conn)
	var cc *resilience.DeadlineContext // the last call's context, restarted while nobody watches it
	for {
		env, err := wc.recv()
		if err != nil {
			return // EOF, closed, or corrupt stream: abandon the connection
		}
		switch env.Kind {
		case kindPing:
			if wc.send(&envelope{Kind: kindPong, ID: env.ID}) != nil {
				return
			}
		case kindCall:
			if !s.call(base, &cc, wc, &env) {
				return
			}
		default:
			return // protocol violation
		}
	}
}

// call executes the variant for one request envelope and sends the
// reply; false means the connection must be abandoned. Variant errors
// and contained panics travel back as the error string of the reply,
// and the connection survives them. A value that does not decode or
// encode also travels back as an error string, but as the last message
// on the connection (kindAbort): the failed codec may have consumed or
// emitted type state the client has not.
//
// With an observer attached each served call is one observed request
// under "replica:<name>" — request span, variant span, adjudication —
// and when the observer records traces the request span continues the
// trace carried by the envelope (its parent is the client attempt span
// that sent the call), so the per-process trace exports assemble into
// one causal tree.
//
// The variant's context is *cc restarted when nobody watched it during
// or after its call, and a new one from base otherwise (see
// ServerConfig.CallTimeout).
func (s *Server[I, O]) call(base *resilience.DeadlineSource, cc **resilience.DeadlineContext, wc *wireConn, env *envelope) bool {
	abort := func(err error) bool {
		wc.send(&envelope{Kind: kindAbort, ID: env.ID, Err: err.Error()}) // closing anyway
		return false
	}
	input, err := s.in.recv(wc, env.Payload)
	if err != nil {
		return abort(err)
	}
	if !base.Restart(*cc, s.cfg.CallTimeout) {
		*cc = base.Start(s.cfg.CallTimeout)
	}
	defer (*cc).End()
	var callCtx context.Context = *cc
	executor := s.executor
	o := s.cfg.Observer
	var req uint64
	if o != nil {
		req = obs.NextRequestID()
		o.RequestStart(executor, req)
		if s.traced {
			stc := obs.ContinueTrace(env.TraceID, env.SpanID)
			callCtx = obs.WithTraceContext(callCtx, stc)
			obs.EmitRequestTraced(o, executor, req, stc)
		}
		o.VariantStart(executor, s.variant.Name(), req)
	}
	start := time.Now()
	value, err := core.ExecuteGuarded(callCtx, s.variant, input)
	if o != nil {
		latency := time.Since(start)
		o.VariantEnd(executor, s.variant.Name(), req, latency, err)
		o.Adjudicated(executor, req, err == nil, err != nil)
		outcome := obs.OutcomeSuccess
		if err != nil {
			outcome = obs.OutcomeFailed
		}
		o.RequestEnd(executor, req, latency, outcome)
	}
	reply := envelope{Kind: kindReply, ID: env.ID}
	if err != nil {
		reply.Err = err.Error()
		return wc.send(&reply) == nil
	}
	if err := s.out.send(wc, &reply, value); err != nil {
		if errors.Is(err, errValueCodec) {
			return abort(err)
		}
		return false
	}
	return true
}
