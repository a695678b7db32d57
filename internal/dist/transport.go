package dist

// The client-side wire machinery under Remote's fan-out: the endpoint
// set, one connection pool per endpoint, and the single-attempt round
// trip. The fan-out (client.go) owns launch order, racing, and the
// verdict on top.
//
// The endpoint set is mutable at runtime — the autonomic control plane
// splices replacement replicas into a live fleet — so it lives behind
// an atomically swapped immutable snapshot (epSet): every Execute
// captures one snapshot and fans out against it, and Add/Remove
// copy-on-write a new snapshot under the mutation mutex. Removing an
// endpoint closes its pool, which unblocks any straggler still reading
// from the removed replica; in-flight calls against other endpoints of
// the same captured snapshot are untouched.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// epSet is one immutable snapshot of the endpoint set: parallel
// endpoint and pool slices. Snapshots are never mutated after
// publication, so a fan-out indexing into one cannot see indexes shift
// under a concurrent Add/Remove.
type epSet struct {
	endpoints []Endpoint
	pools     []*connPool
	// configured is the identity permutation 0..n-1: the routing order
	// of a request no detector or ejector re-ranks. Shared and read-only.
	configured []int
}

// newEpSet publishes a snapshot over parallel endpoint and pool slices
// it takes ownership of.
func newEpSet(endpoints []Endpoint, pools []*connPool) *epSet {
	s := &epSet{endpoints: endpoints, pools: pools, configured: make([]int, len(endpoints))}
	for i := range s.configured {
		s.configured[i] = i
	}
	return s
}

// index returns the position of the named endpoint, or -1.
func (s *epSet) index(name string) int {
	for i, ep := range s.endpoints {
		if ep.Name == name {
			return i
		}
	}
	return -1
}

// names returns the endpoint names in configured order.
func (s *epSet) names() []string {
	out := make([]string, len(s.endpoints))
	for i, ep := range s.endpoints {
		out[i] = ep.Name
	}
	return out
}

// validateEndpoint reports an endpoint that cannot be dialed by name.
func (r *Remote[I, O]) validateEndpoint(ep Endpoint) error {
	if ep.Name == "" || ep.Dial == nil {
		return fmt.Errorf("dist: %s %q: endpoint needs a name and a dialer", r.kind, r.name)
	}
	return nil
}

// view returns the current endpoint-set snapshot. Callers fan one
// request out against one view; the view stays valid (its pools are
// only closed by remove/close, which unblocks rather than corrupts).
func (r *Remote[I, O]) view() *epSet { return r.eps.Load() }

// AddEndpoint splices a new endpoint (with a fresh pool) into the live
// set. Requests already fanned out keep the endpoint view they
// captured; the next Execute sees the grown set.
func (r *Remote[I, O]) AddEndpoint(ep Endpoint) error {
	if err := r.validateEndpoint(ep); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClientClosed
	}
	cur := r.eps.Load()
	if cur.index(ep.Name) >= 0 {
		return fmt.Errorf("dist: %s %q: duplicate endpoint %q", r.kind, r.name, ep.Name)
	}
	r.eps.Store(newEpSet(
		append(append([]Endpoint(nil), cur.endpoints...), ep),
		append(append([]*connPool(nil), cur.pools...), newConnPool()),
	))
	return nil
}

// removeEndpoint takes the named endpoint out of the set and closes its
// pool, which cancels any straggler still blocked on the removed
// replica. minLeft guards the invariant the client needs after removal
// (Remote: at least 1 endpoint, Quorum: at least 2k+1).
func (r *Remote[I, O]) removeEndpoint(name string, minLeft int) error {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return ErrClientClosed
	}
	cur := r.eps.Load()
	i := cur.index(name)
	if i < 0 {
		r.mu.Unlock()
		return fmt.Errorf("dist: %s %q: no endpoint %q", r.kind, r.name, name)
	}
	if len(cur.endpoints)-1 < minLeft {
		r.mu.Unlock()
		return fmt.Errorf("dist: %s %q: removing %q would leave %d endpoints, need at least %d",
			r.kind, r.name, name, len(cur.endpoints)-1, minLeft)
	}
	r.eps.Store(newEpSet(
		append(append([]Endpoint(nil), cur.endpoints[:i]...), cur.endpoints[i+1:]...),
		append(append([]*connPool(nil), cur.pools[:i]...), cur.pools[i+1:]...),
	))
	removed := cur.pools[i]
	r.mu.Unlock()
	removed.close()
	return nil
}

// Close releases every pooled and in-flight connection; blocked calls
// unblock with a connection error, and abandoned attempts still reading
// a late reply end with them, as do the connections' workers — which a
// Remote dropped without Close leaves parked. Idempotent.
func (r *Remote[I, O]) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.mu.Lock()
	set := r.eps.Load()
	r.mu.Unlock()
	for _, p := range set.pools {
		p.close()
	}
	return nil
}

// errDecided is the outcome of an attempt refused its connection
// because its request was decided first (see roundTrip): it never
// reached its endpoint, so it says nothing about it.
var errDecided = fmt.Errorf("dist: request decided before the attempt was sent: %w", context.Canceled)

// roundTrip performs one RPC attempt against its endpoint of the
// request's captured snapshot: the connection the launch took for it,
// or else a pooled one (or fresh dial), framed call out, framed reply
// in, all before one deadline fixed when the attempt starts — the
// caller's, or CallTimeout from now if that comes first. The attempt
// span tc (zero when untraced) rides the envelope so the replica
// continues the trace.
//
// Two contexts bound it. live is the request's: once the fan-out has
// decided, an attempt that has not yet written its call does not start
// (connPool.get refuses it, or a connection taken for it goes back to
// the pool unused, and the attempt ends with errDecided unless the
// caller gave up too). ctx is the caller's: only its cancellation, or
// the deadline passing, expires the connection so blocked I/O returns
// promptly. The fan-out deciding does not — a hedge loser or quorum
// straggler already on the wire keeps reading, and its connection goes
// back to the pool with its streams still in step.
//
// Salvage is bounded: when more of the endpoint's connections are in
// flight than the racing requests plus maxStragglers, the attempt is
// armed on live instead, so the decision cuts it off as before. A
// replica that stops answering therefore holds a bounded number of
// connections, not one per request until CallTimeout.
//
// The connection goes back to the pool only after a clean exchange
// (a value decoded, or an in-band variant failure) that did not expire
// it; on every other path its value streams may be out of step with
// the replica's, and it is dropped.
func (f *fanout[I, O]) roundTrip(ctx, live context.Context, a attempt) (out O, err error) {
	deadline := time.Now().Add(f.r.cfg.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pool, name := f.v.pools[a.ep], f.v.endpoints[a.ep].Name
	conn := a.conn
	if conn == nil {
		conn, err = pool.get(live, deadline, f.v.endpoints[a.ep].Dial)
	} else if err = live.Err(); err != nil {
		pool.put(conn)
	}
	if err != nil {
		if live.Err() != nil && ctx.Err() == nil {
			return out, errDecided
		}
		return out, err
	}
	cut := ctx
	if f.racing && pool.busy() > int(f.r.racing.Load())+maxStragglers {
		cut = live
	}
	stop := conn.arm(cut, deadline)
	reusable := false
	defer func() {
		if conn.disarm(stop) && reusable {
			pool.put(conn)
		} else {
			pool.drop(conn)
		}
	}()
	call := envelope{Kind: kindCall, ID: f.r.ids.Add(1), TraceID: a.tc.TraceID, SpanID: a.tc.SpanID}
	if err := f.r.in.send(conn, &call, f.input); err != nil {
		return out, fmt.Errorf("dist: %s: send: %w", name, err)
	}
	reply, err := conn.recv()
	if err != nil {
		return out, fmt.Errorf("dist: %s: recv: %w", name, err)
	}
	if reply.ID != call.ID || (reply.Kind != kindReply && reply.Kind != kindAbort) {
		return out, fmt.Errorf("%w: unexpected reply kind %d id %d", ErrBadFrame, reply.Kind, reply.ID)
	}
	if reply.Err != "" || reply.Kind == kindAbort {
		// An in-band failure: the variant on the far side failed, but the
		// connection itself completed a clean round trip and stays usable
		// — unless the replica is abandoning it (kindAbort).
		reusable = reply.Kind == kindReply
		return out, fmt.Errorf("dist: %s: %w: %s", name, ErrRemote, reply.Err)
	}
	if out, err = f.r.out.recv(conn, reply.Payload); err != nil {
		return out, err
	}
	reusable = true
	return out, nil
}

// connPool is one endpoint's connection pool. It tracks every live
// connection it handed out — pooled and in-flight alike — so closing
// the pool unblocks calls stuck on a partitioned network.
//
// A connection that served a racing request has a worker (see
// wireConn.work). Whoever takes a connection out of the pool for good
// — put when the pool is full or closed, drop, close for the idle ones
// — retires it, which ends its worker; an in-flight connection is
// retired by its attempt, when it comes back.
type connPool struct {
	mu     sync.Mutex
	free   []*wireConn
	all    map[*wireConn]struct{}
	closed bool
}

func newConnPool() *connPool {
	return &connPool{all: make(map[*wireConn]struct{})}
}

// get pops an idle connection or dials a fresh one, the dial bounded by
// the attempt's deadline. An attempt whose context is done — a quorum
// straggler launched after the verdict, or a loser whose request was
// decided while it dialled — gets none: it would only take a healthy
// connection to drop it. A connection dialled for it goes to the idle
// list for the next request. The idle list is checked under the same
// lock as the context, so an attempt that takes an idle connection did
// so before its request was decided.
func (p *connPool) get(ctx context.Context, deadline time.Time, dial DialFunc) (*wireConn, error) {
	p.mu.Lock()
	if err := ctx.Err(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	dctx, cancel := context.WithDeadline(ctx, deadline)
	raw, err := dial(dctx)
	cancel()
	if err != nil {
		return nil, err
	}
	c := newWireConn(raw)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, ErrClientClosed
	}
	p.all[c] = struct{}{}
	p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		p.put(c)
		return nil, err
	}
	return c, nil
}

// take pops an idle connection for a racing attempt about to be handed
// to the connection's worker, or returns nil: none is idle, or the pool
// is closed. Unlike get it does not check the request's decision; the
// worker does, before it writes the call (see roundTrip).
func (p *connPool) take() *wireConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 && !p.closed {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	return nil
}

// busy returns how many of the pool's connections are in flight.
func (p *connPool) busy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all) - len(p.free)
}

// put returns a healthy connection to the idle list (or closes it when
// the pool is full or closed).
func (p *connPool) put(c *wireConn) {
	p.mu.Lock()
	if p.closed || len(p.free) >= maxIdleConns {
		delete(p.all, c)
		p.mu.Unlock()
		c.retire()
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// drop discards a connection that must not be reused. Its timer is
// already stopped (disarm), so nothing pins the closed connection.
func (p *connPool) drop(c *wireConn) {
	p.mu.Lock()
	delete(p.all, c)
	for i, f := range p.free {
		if f == c {
			p.free = append(p.free[:i], p.free[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	c.retire()
}

// close closes every tracked connection and retires the idle ones;
// subsequent gets fail fast.
func (p *connPool) close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]*wireConn, 0, len(p.all))
	for c := range p.all {
		conns = append(conns, c)
	}
	idle := p.free
	p.all = make(map[*wireConn]struct{})
	p.free = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, c := range idle {
		c.retire()
	}
}

// job is one racing attempt handed to a connection's worker; a.conn is
// the connection.
type job struct {
	req attemptRunner
	a   attempt
}

// attemptRunner is a racing request as the workers running its
// attempts see it.
type attemptRunner interface {
	// runAttempt runs a, reports its result to the request and lets go
	// of the request.
	runAttempt(a attempt)
}
