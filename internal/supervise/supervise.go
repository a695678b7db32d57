// Package supervise implements an Erlang-style supervision tree over
// restartable components: children are started in order, monitored for
// failure (returned errors and captured panics alike), restarted
// according to a per-tree strategy, and — when restarts exceed the
// configured intensity — escalated to the parent supervisor.
//
// In the paper's terms this is environment-redundancy applied to whole
// processes: a micro-rebootable component whose failure-triggering
// conditions are environmental (Heisenbugs, aging) is given a fresh
// environment by restarting it, and the supervision tree bounds how much
// restarting is attempted before the failure is declared permanent and
// propagated. Children that need state to survive the restart bind a
// durable checkpoint store (internal/checkpoint), so a restart loses no
// acknowledged writes.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// Strategy selects which siblings restart when a child fails.
type Strategy int

const (
	// OneForOne restarts only the failed child.
	OneForOne Strategy = iota
	// RestForOne restarts the failed child and every child started after
	// it (children that may depend on the failed one).
	RestForOne
	// AllForOne restarts every child when any one fails.
	AllForOne
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case OneForOne:
		return "one_for_one"
	case RestForOne:
		return "rest_for_one"
	case AllForOne:
		return "all_for_one"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// RestartPolicy selects when a child is restarted.
type RestartPolicy int

const (
	// Permanent children are restarted whenever they terminate, even
	// normally (servers that should always be up).
	Permanent RestartPolicy = iota
	// Transient children are restarted only on abnormal termination — an
	// error or a panic. A nil return is a normal exit.
	Transient
	// Temporary children are never restarted.
	Temporary
)

// Intensity is the restart-intensity window: more than MaxRestarts
// restarts within Window escalates the failure to the parent.
type Intensity struct {
	MaxRestarts int
	Window      time.Duration
}

// DefaultIntensity allows 3 restarts in 5 seconds, Erlang's default.
var DefaultIntensity = Intensity{MaxRestarts: 3, Window: 5 * time.Second}

// ChildSpec describes one supervised component.
//
// A child's lifecycle is split in two so recovery time is measurable:
// Init brings the component to readiness (replay a WAL, open sockets)
// and its completion ends the downtime clock; Run performs the
// component's work until the context is canceled or the component
// fails. Either may be nil.
type ChildSpec struct {
	// Name identifies the child within its supervisor. Required, unique.
	Name string
	// Init restores the child to readiness. Its successful return marks
	// the end of a restart's downtime (the MTTR sample). An Init error
	// counts as a child failure.
	Init func(ctx context.Context) error
	// Run is the child's body, executed in its own goroutine. Returning
	// nil is a normal exit; an error or a panic is a failure. Run must
	// return promptly once ctx is canceled.
	Run func(ctx context.Context) error
	// Restart selects when the child is restarted (default Permanent).
	Restart RestartPolicy
}

// ErrEscalated is returned by Serve when restart intensity was exceeded
// and the whole supervisor gave up (escalating to its parent, if any).
var ErrEscalated = errors.New("supervise: restart intensity exceeded")

// ErrPanicked wraps the value of a panic captured in a child.
var ErrPanicked = errors.New("supervise: child panicked")

// Options configures a supervisor.
type Options struct {
	// Name labels the supervisor in observation events; empty means
	// "supervisor".
	Name string
	// Strategy selects which siblings restart on a failure.
	Strategy Strategy
	// Intensity bounds restarts; the zero value uses DefaultIntensity.
	Intensity Intensity
	// Backoff delays each restart (a fixed pause before re-Init); zero
	// restarts immediately.
	Backoff time.Duration
	// Observer receives ProcessRestarted and EscalationRaised events;
	// nil observes nothing.
	Observer obs.Observer
}

func (o Options) name() string {
	if o.Name == "" {
		return "supervisor"
	}
	return o.Name
}

func (o Options) intensity() Intensity {
	if o.Intensity.MaxRestarts == 0 && o.Intensity.Window == 0 {
		return DefaultIntensity
	}
	return o.Intensity
}

// exit is a child termination report delivered to the monitor loop.
// gen identifies the child incarnation that produced it: exits from an
// incarnation the supervisor already stopped or replaced are stale and
// ignored, so a deliberate stop is never misread as a fresh failure.
type exit struct {
	child int
	gen   uint64
	err   error // nil for a normal return
}

// addReq is a dynamic child-start request delivered to the monitor
// loop: the spec to adopt plus a reply channel for the start outcome.
type addReq struct {
	spec  ChildSpec
	reply chan error
}

// child is the runtime state of one supervised component.
type child struct {
	spec     ChildSpec
	gen      uint64
	cancel   context.CancelFunc
	done     chan struct{} // closed when the child goroutine returns
	running  bool
	restarts int
}

// Supervisor runs a set of children under a restart strategy. Create
// one with New, add children with Add, then Serve. Serve may be called
// again after it returns (the nesting adapter AsChild relies on this);
// it may not be called concurrently with itself.
type Supervisor struct {
	opts  Options
	specs []ChildSpec

	mu       sync.Mutex
	kids     []*child
	exits    chan exit
	restartQ chan string // programmatic restart requests, by child name
	addQ     chan addReq // dynamic child-start requests
	serving  bool
}

// New creates an empty supervisor.
func New(opts Options) *Supervisor {
	return &Supervisor{opts: opts}
}

// Add appends a child spec. All children must be added before Serve.
func (s *Supervisor) Add(spec ChildSpec) error {
	if spec.Name == "" {
		return errors.New("supervise: child needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serving {
		return errors.New("supervise: cannot add children while serving")
	}
	for _, c := range s.specs {
		if c.Name == spec.Name {
			return fmt.Errorf("supervise: duplicate child %q", spec.Name)
		}
	}
	s.specs = append(s.specs, spec)
	return nil
}

// Restart asks the serving supervisor to restart the named child as if
// it had failed (applying the strategy, counting against intensity).
// Higher layers use it to turn a health signal into a supervised
// micro-reboot. It is safe to call concurrently with Serve.
func (s *Supervisor) Restart(name string) error {
	s.mu.Lock()
	known := false
	for _, c := range s.specs {
		if c.Name == name {
			known = true
		}
	}
	q := s.restartQ
	serving := s.serving
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("supervise: unknown child %q", name)
	}
	if !serving || q == nil {
		return errors.New("supervise: not serving")
	}
	select {
	case q <- name:
		return nil
	default:
		return errors.New("supervise: restart queue full")
	}
}

// StartChild adds a child to a *serving* supervisor and starts it
// immediately — the dynamic sibling of Add, which only accepts specs
// before Serve. The request is routed through the monitor loop (like
// Restart), so the child list is only ever grown on the supervising
// goroutine; the call blocks until the child's Init has completed (or
// failed) and returns the start outcome. The autonomic control plane
// uses it to spawn replacement replicas into a running fleet.
func (s *Supervisor) StartChild(spec ChildSpec) error {
	if spec.Name == "" {
		return errors.New("supervise: child needs a name")
	}
	req := addReq{spec: spec, reply: make(chan error, 1)}
	s.mu.Lock()
	if !s.serving || s.addQ == nil {
		s.mu.Unlock()
		return errors.New("supervise: not serving")
	}
	select {
	case s.addQ <- req:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		return errors.New("supervise: start queue full")
	}
	return <-req.reply
}

// adopt grows the child list with a dynamic spec and starts it. Runs on
// the supervising goroutine only (via the addQ case of Serve's loop).
func (s *Supervisor) adopt(ctx context.Context, spec ChildSpec) error {
	if s.indexOf(spec.Name) >= 0 {
		return fmt.Errorf("supervise: duplicate child %q", spec.Name)
	}
	s.mu.Lock()
	s.specs = append(s.specs, spec)
	s.kids = append(s.kids, &child{spec: spec})
	idx := len(s.kids) - 1
	s.mu.Unlock()
	if err := s.start(ctx, idx, nil); err != nil {
		s.reportInitFailure(idx, err)
		return err
	}
	return nil
}

// Serve starts the children in order and supervises them until ctx is
// canceled (normal shutdown, returns nil), every child has terminated
// and none is restartable (returns nil), or restart intensity is
// exceeded (stops all children in reverse start order, returns
// ErrEscalated wrapped around the final failure). Serve owns the
// calling goroutine.
func (s *Supervisor) Serve(ctx context.Context) (err error) {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("supervise: already serving")
	}
	if len(s.specs) == 0 {
		s.mu.Unlock()
		return errors.New("supervise: no children")
	}
	s.serving = true
	s.kids = make([]*child, len(s.specs))
	for i, spec := range s.specs {
		s.kids[i] = &child{spec: spec}
	}
	// Fresh channels per incarnation: a supervisor restarted by its
	// parent must not see its previous life's exits. The exits buffer
	// holds one report per child plus slack for init-failure feedback.
	s.exits = make(chan exit, 2*len(s.specs)+16)
	s.restartQ = make(chan string, len(s.specs)+4)
	s.addQ = make(chan addReq, 4)
	exits, restartQ, addQ := s.exits, s.restartQ, s.addQ
	s.mu.Unlock()
	defer func() {
		// Fail pending StartChild callers instead of leaving them blocked:
		// the queue is drained under the same mutex StartChild enqueues
		// under, so a request is either handled by the loop or refused here.
		s.mu.Lock()
		s.serving = false
		for {
			select {
			case req := <-addQ:
				req.reply <- errors.New("supervise: not serving")
				continue
			default:
			}
			break
		}
		s.addQ = nil
		s.mu.Unlock()
	}()

	// Initial start, in order. A failure during initial start enters the
	// ordinary restart path.
	for i := range s.kids {
		if serr := s.start(ctx, i, nil); serr != nil {
			s.reportInitFailure(i, serr)
		}
	}

	var restartTimes []time.Time
	intensity := s.opts.intensity()

	for {
		select {
		case <-ctx.Done():
			s.stopAll()
			return nil
		case name := <-restartQ:
			idx := s.indexOf(name)
			if idx < 0 {
				continue
			}
			if err := s.handleFailure(ctx, idx, errors.New("supervise: restart requested"), &restartTimes, intensity); err != nil {
				return err
			}
		case req := <-addQ:
			req.reply <- s.adopt(ctx, req.spec)
		case e := <-exits:
			s.mu.Lock()
			c := s.kids[e.child]
			stale := e.gen != c.gen
			if !stale {
				c.running = false
			}
			s.mu.Unlock()
			if stale {
				continue
			}
			if !restartable(c.spec.Restart, e.err) {
				if s.allIdle() {
					return nil
				}
				continue
			}
			if err := s.handleFailure(ctx, e.child, e.err, &restartTimes, intensity); err != nil {
				return err
			}
		}
	}
}

func (s *Supervisor) indexOf(name string) int {
	for i, spec := range s.specs {
		if spec.Name == name {
			return i
		}
	}
	return -1
}

// restartable reports whether a child with the given policy restarts
// after terminating with err.
func restartable(p RestartPolicy, err error) bool {
	switch p {
	case Temporary:
		return false
	case Transient:
		return err != nil
	default: // Permanent
		return true
	}
}

// reportInitFailure feeds an Init failure back to the monitor loop as a
// current-generation exit. The send is non-blocking; the buffer is
// sized so a drop can only happen in a restart storm already headed for
// escalation.
func (s *Supervisor) reportInitFailure(idx int, err error) {
	s.mu.Lock()
	gen := s.kids[idx].gen
	exits := s.exits
	s.mu.Unlock()
	select {
	case exits <- exit{child: idx, gen: gen, err: err}:
	default:
	}
}

// handleFailure applies the strategy to a failed child, tracking
// intensity and escalating when it is exceeded.
func (s *Supervisor) handleFailure(ctx context.Context, idx int, cause error, restartTimes *[]time.Time, intensity Intensity) error {
	if ctx.Err() != nil {
		s.stopAll()
		return nil
	}
	failedAt := time.Now()

	// Intensity window: drop restarts that slid out of the window, then
	// check whether one more would exceed the budget.
	*restartTimes = append(*restartTimes, failedAt)
	cutoff := failedAt.Add(-intensity.Window)
	kept := (*restartTimes)[:0]
	for _, t := range *restartTimes {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	*restartTimes = kept
	if len(*restartTimes) > intensity.MaxRestarts {
		s.stopAll()
		if o := s.opts.Observer; o != nil {
			obs.Emit(o, obs.EscalationRaised(s.opts.name(), s.kids[idx].spec.Name))
		}
		return fmt.Errorf("%w: child %q failed %d times in %v: %w",
			ErrEscalated, s.kids[idx].spec.Name, len(*restartTimes), intensity.Window, cause)
	}

	// Strategy: compute the set of children to bounce, in start order.
	var bounce []int
	switch s.opts.Strategy {
	case AllForOne:
		for i := range s.kids {
			bounce = append(bounce, i)
		}
	case RestForOne:
		for i := idx; i < len(s.kids); i++ {
			bounce = append(bounce, i)
		}
	default: // OneForOne
		bounce = []int{idx}
	}

	// Stop the affected siblings in reverse start order (the failed
	// child is already down; stop is a no-op for it).
	for i := len(bounce) - 1; i >= 0; i-- {
		s.stop(bounce[i])
	}
	if s.opts.Backoff > 0 {
		timer := time.NewTimer(s.opts.Backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			s.stopAll()
			return nil
		case <-timer.C:
		}
	}
	// Restart in start order. The failed child's downtime sample runs
	// from its failure to its Init completing.
	for _, i := range bounce {
		downFor := &failedAt
		if i != idx {
			downFor = nil
		}
		if err := s.start(ctx, i, downFor); err != nil {
			s.reportInitFailure(i, err)
		}
	}
	return nil
}

// start Inits child idx and launches its Run goroutine under a fresh
// generation. failedAt, when non-nil, is the failure instant for the
// MTTR sample.
func (s *Supervisor) start(ctx context.Context, idx int, failedAt *time.Time) error {
	c := s.kids[idx]
	s.mu.Lock()
	c.gen++
	gen := c.gen
	exits := s.exits
	s.mu.Unlock()
	if c.spec.Init != nil {
		if err := safeCall(ctx, c.spec.Init); err != nil {
			return fmt.Errorf("supervise: init of %q: %w", c.spec.Name, err)
		}
	}
	if failedAt != nil {
		s.mu.Lock()
		c.restarts++
		restarts := c.restarts
		s.mu.Unlock()
		if o := s.opts.Observer; o != nil {
			obs.Emit(o, obs.ProcessRestarted(s.opts.name(), c.spec.Name, restarts, time.Since(*failedAt)))
		}
	}
	// The run context is detached from the supervisor's: shutdown must
	// reach children one at a time, in reverse start order, through
	// stop() — not all at once when the root context is canceled.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	done := make(chan struct{})
	s.mu.Lock()
	c.cancel = cancel
	c.done = done
	c.running = true
	s.mu.Unlock()
	go func() {
		defer close(done)
		var err error
		if c.spec.Run != nil {
			err = safeCall(runCtx, c.spec.Run)
		}
		// A cancellation-driven return after the supervisor asked the
		// child to stop is a normal exit, not a failure. The check must
		// precede our own cancel below, which would mask the signal.
		askedToStop := runCtx.Err() != nil
		cancel()
		if err != nil && askedToStop && errors.Is(err, context.Canceled) {
			err = nil
		}
		select {
		case exits <- exit{child: idx, gen: gen, err: err}:
		case <-ctx.Done():
		}
	}()
	return nil
}

// safeCall invokes fn, converting a panic into ErrPanicked.
func safeCall(ctx context.Context, fn func(context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrPanicked, r, debug.Stack())
		}
	}()
	return fn(ctx)
}

// stop cancels one child, waits for its goroutine to return, and bumps
// its generation so the exit it emitted while stopping reads as stale.
func (s *Supervisor) stop(idx int) {
	s.mu.Lock()
	c := s.kids[idx]
	running, cancel, done := c.running, c.cancel, c.done
	c.running = false
	c.gen++
	s.mu.Unlock()
	if !running || cancel == nil {
		return
	}
	cancel()
	<-done
}

// stopAll stops every child in reverse start order (ordered shutdown:
// later children may depend on earlier ones).
func (s *Supervisor) stopAll() {
	for i := len(s.kids) - 1; i >= 0; i-- {
		s.stop(i)
	}
}

// allIdle reports whether no child goroutine is running.
func (s *Supervisor) allIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.kids {
		if c.running {
			return false
		}
	}
	return true
}

// Restarts reports how many times the named child has been restarted.
func (s *Supervisor) Restarts(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.kids {
		if c.spec.Name == name {
			return c.restarts
		}
	}
	return 0
}

// AsChild adapts a supervisor into a ChildSpec so trees nest: the inner
// supervisor serves as a child of the outer one, and an escalation of
// the inner tree surfaces as an ordinary child failure of the outer —
// which then applies its own strategy and intensity.
func (s *Supervisor) AsChild(name string) ChildSpec {
	return ChildSpec{
		Name: name,
		Run:  s.Serve,
	}
}
