package dist

// Quorum is the Byzantine sibling of Remote. Where Remote treats its
// endpoints as interchangeable servers of one trusted service (failover
// and hedging pick *a* reply), Quorum treats them as independently
// faulty replicas whose replies must be adjudicated: every request fans
// out to all n endpoints, the replies are voted with an internal/vote
// adjudicator, and the 2k+1 sizing rule of the paper (Section 4.1) is
// enforced at construction so a fleet of n replicas provably masks up
// to k wrong answers. This is the paper's multi-version claim — and
// Table 1's malicious-fault column — carried across the process
// boundary: a replica that *lies* (answers promptly but wrongly) is
// outvoted, and the disagreement is converted into failure-detector
// evidence against it.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/vote"
)

// ErrQuorumSize reports a Quorum constructed with fewer endpoints than
// its fault-tolerance target requires (n must be at least 2k+1).
var ErrQuorumSize = errors.New("dist: not enough replicas for the fault-tolerance target (need 2k+1)")

// errStragglerPending is the placeholder failure standing in for a
// replica that has not answered yet when the adjudicator runs early.
var errStragglerPending = errors.New("dist: reply pending")

// QuorumConfig parameterizes a Quorum variant. The zero value selects
// the documented defaults.
type QuorumConfig struct {
	// CallTimeout is the per-endpoint deadline bounding one RPC attempt
	// end to end (dial, send, receive). Default 1s.
	CallTimeout time.Duration
	// Faults is k, the number of wrong or missing answers the quorum
	// must tolerate. Construction fails unless at least
	// vote.VersionsNeeded(Faults) = 2k+1 endpoints are configured.
	Faults int
	// MinReplies is how many replies must settle before the adjudicator
	// first runs. Verdict soundness does not depend on it — pending
	// replicas are adjudicated as failed placeholders, so a strict-
	// majority adjudicator needs the same k+1 agreeing votes early or
	// late — but plurality-style adjudicators decide on whatever has
	// settled, so the default waits for n-Faults replies.
	MinReplies int
	// Detector, if non-nil, receives an accusation (Detector.Accuse)
	// for every outvoted reply, letting vote disagreement move a
	// prompt-but-lying replica to suspect and dead. The detector's
	// heartbeats are not consulted for routing: a quorum must query
	// every replica regardless of liveness opinion.
	Detector *Detector
	// Observer receives the request span plus QuorumReached,
	// VoteDisagreement, and ReplicaOutvoted events under the Quorum's
	// name; nil observes nothing.
	Observer obs.Observer
}

// Quorum is a core.Variant whose Execute fans one call out to every
// replica endpoint and returns the adjudicated verdict. The first
// moment a quorum is reached the stragglers are canceled (their
// connection deadlines are smashed, so blocked reads return), keeping
// the fast path at roughly the (n-k)-th fastest replica rather than
// the slowest.
//
// Because it satisfies core.Variant, a Quorum plugs unchanged into the
// local pattern executors — a quorum fleet can itself be one variant
// of a recovery block or N-version set.
type Quorum[I, O any] struct {
	tp     *transport
	cfg    QuorumConfig
	adj    core.Adjudicator[O]
	eq     core.Equal[O]
	traced bool
}

var _ core.Variant[int, int] = (*Quorum[int, int])(nil)

// NewQuorum builds a quorum variant over 2k+1 or more endpoints. The
// adjudicator decides the verdict (vote.Majority for the paper's
// strict-majority reading; Plurality / MOfN / Weighted compose too);
// eq is the agreement relation used to attribute each settled reply to
// the verdict — it should be the same equality the adjudicator votes
// with, and is what turns a losing reply into a ReplicaOutvoted event
// and a detector accusation.
func NewQuorum[I, O any](name string, cfg QuorumConfig, adj core.Adjudicator[O], eq core.Equal[O], endpoints ...Endpoint) (*Quorum[I, O], error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("dist: quorum %q: %w", name, core.ErrNoVariants)
	}
	if adj == nil || eq == nil {
		return nil, fmt.Errorf("dist: quorum %q: adjudicator and equality are required", name)
	}
	if cfg.Faults < 0 {
		return nil, fmt.Errorf("dist: quorum %q: negative fault tolerance %d", name, cfg.Faults)
	}
	if need := vote.VersionsNeeded(cfg.Faults); len(endpoints) < need {
		return nil, fmt.Errorf("dist: quorum %q: %w: k=%d needs %d replicas, have %d",
			name, ErrQuorumSize, cfg.Faults, need, len(endpoints))
	}
	tp, err := newTransport("quorum", name, cfg.CallTimeout, endpoints)
	if err != nil {
		return nil, err
	}
	cfg.CallTimeout = tp.callTimeout
	// MinReplies is left as configured (possibly zero) and resolved per
	// request against the fleet size of that request's endpoint view, so
	// a fleet grown or shrunk at runtime keeps the n-k default honest.
	return &Quorum[I, O]{
		tp: tp, cfg: cfg, adj: adj, eq: eq,
		traced: obs.WantsTrace(cfg.Observer),
	}, nil
}

// Name implements core.Variant.
func (q *Quorum[I, O]) Name() string { return q.tp.name }

// Replicas returns the fleet size n.
func (q *Quorum[I, O]) Replicas() int { return len(q.tp.view().endpoints) }

// TolerableFaults returns k, the configured wrong-answer tolerance.
func (q *Quorum[I, O]) TolerableFaults() int { return q.cfg.Faults }

// AddEndpoint splices a new replica into the live fleet. Requests
// already fanned out keep the endpoint view they captured; the next
// Execute votes over the grown fleet.
func (q *Quorum[I, O]) AddEndpoint(ep Endpoint) error { return q.tp.add(ep) }

// RemoveEndpoint takes a replica out of the live fleet and cancels any
// straggler still blocked on it. Removal is refused when it would
// shrink the fleet below the 2k+1 floor the fault-tolerance target
// requires — a controller must splice the replacement in before it
// retires the convicted replica.
func (q *Quorum[I, O]) RemoveEndpoint(name string) error {
	return q.tp.remove(name, vote.VersionsNeeded(q.cfg.Faults))
}

// Endpoints returns the current replica names in configured order.
func (q *Quorum[I, O]) Endpoints() []string { return q.tp.view().names() }

// Close releases every pooled and in-flight connection; blocked calls
// unblock with a connection error. Idempotent.
func (q *Quorum[I, O]) Close() error {
	q.tp.close()
	return nil
}

// quorumReply is one settled endpoint reply.
type quorumReply[O any] struct {
	value   O
	err     error
	ep      int
	latency time.Duration
}

// Execute implements core.Variant: the full fan-out with incremental
// adjudication. Replies are collected into a fixed slate of n results
// (stragglers stand in as failed placeholders); once MinReplies have
// settled, every further settle re-runs the adjudicator, and the first
// verdict wins. A strict-majority adjudicator over the padded slate is
// monotone — pending replies can only add votes, never dethrone a
// majority already reached — so deciding early is sound.
//
// With an observer attached the fan-out is one observed request span
// under the Quorum's name with one RPCAttempted lineage record per
// replica (losers and canceled stragglers included), the adjudication
// verdict, and the quorum events: QuorumReached on a verdict,
// VoteDisagreement when the settled successes were not unanimous, and
// ReplicaOutvoted (plus a Detector accusation) per losing reply.
func (q *Quorum[I, O]) Execute(ctx context.Context, input I) (O, error) {
	var zero O
	if q.tp.closed.Load() {
		return zero, ErrClientClosed
	}
	// One immutable endpoint view per request: a controller splicing
	// replicas mid-flight changes the next request's fleet, not this one.
	v := q.tp.view()
	n := len(v.endpoints)
	minReplies := q.cfg.MinReplies
	if minReplies <= 0 {
		minReplies = n - q.cfg.Faults
	}
	if minReplies > n {
		minReplies = n
	}
	oreq := q.tp.observe(ctx, q.cfg.Observer, q.traced)
	o, name, req, rtc := oreq.o, oreq.name, oreq.req, oreq.rtc
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	replies := make(chan quorumReply[O], n)
	var (
		lineage  []obs.RPCAttempt
		launches []time.Time
		settled  = make([]bool, n)
	)
	if o != nil {
		lineage = make([]obs.RPCAttempt, n)
		launches = make([]time.Time, n)
	}
	for ep := 0; ep < n; ep++ {
		var atc obs.TraceContext
		if rtc.Valid() {
			atc = rtc.Child()
		}
		if o != nil {
			lineage[ep] = obs.RPCAttempt{
				Endpoint: v.endpoints[ep].Name, Span: atc, Attempt: ep + 1,
			}
			launches[ep] = time.Now()
		}
		go func(ep int, atc obs.TraceContext) {
			start := time.Now()
			value, err := roundTrip[I, O](ctx, q.tp, v, ep, atc, input)
			latency := time.Since(start)
			if o != nil {
				obs.Emit(o, obs.RPCCompleted(name, v.endpoints[ep].Name, req, latency, err))
			}
			replies <- quorumReply[O]{value: value, err: err, ep: ep, latency: latency}
		}(ep, atc)
	}

	// The slate the adjudicator sees: every endpoint's slot, pending
	// ones standing in as failures so the vote denominator is always n.
	slate := make([]core.Result[O], n)
	for ep := range slate {
		slate[ep] = core.Result[O]{Variant: v.endpoints[ep].Name, Err: errStragglerPending}
	}

	// finish closes the observed request; agreed marks the replies that
	// voted with the verdict, nil when there is none (failure or
	// cancellation).
	finish := func(agreed []bool, err error) {
		for ep := range lineage {
			lineage[ep].Won = agreed != nil && agreed[ep]
		}
		oreq.finish(lineage, launches, settled, err)
	}

	// answerClasses counts the equivalence classes among the settled
	// successful replies under eq. It copies reply values, so it is only
	// called with an observer attached to report the count to.
	answerClasses := func() int {
		var reps []O
	outer:
		for ep := range slate {
			if !settled[ep] || !slate[ep].OK() {
				continue
			}
			for _, r := range reps {
				if q.eq(r, slate[ep].Value) {
					continue outer
				}
			}
			reps = append(reps, slate[ep].Value)
		}
		return len(reps)
	}

	settledCount := 0
	for settledCount < n {
		select {
		case rep := <-replies:
			settledCount++
			settled[rep.ep] = true
			slate[rep.ep] = core.Result[O]{
				Variant: v.endpoints[rep.ep].Name,
				Value:   rep.value, Err: rep.err, Latency: rep.latency,
			}
			if o != nil {
				lineage[rep.ep].Latency = rep.latency
				lineage[rep.ep].Err = rep.err
			}
			if settledCount < minReplies {
				continue
			}
			verdict, err := q.adj.Adjudicate(slate)
			if err != nil {
				continue // no quorum yet; wait for more replies
			}
			// A verdict: attribute every settled reply to it, convert the
			// losers into evidence, and cancel the stragglers.
			agreed := make([]bool, n)
			votes := 0
			disagreed := false
			for ep := range slate {
				if !settled[ep] || !slate[ep].OK() {
					continue
				}
				if q.eq(slate[ep].Value, verdict) {
					agreed[ep] = true
					votes++
					continue
				}
				disagreed = true
				obs.Emit(o, obs.ReplicaOutvoted(name, v.endpoints[ep].Name, req))
				if q.cfg.Detector != nil {
					q.cfg.Detector.Accuse(v.endpoints[ep].Name)
				}
			}
			if disagreed && o != nil {
				obs.Emit(o, obs.VoteDisagreement(name, req, answerClasses()))
			}
			obs.Emit(o, obs.QuorumReached(name, req, votes, settledCount, n))
			finish(agreed, nil)
			cancelAll()
			return verdict, nil
		case <-ctx.Done():
			finish(nil, ctx.Err())
			return zero, ctx.Err()
		}
	}
	// Every replica settled and the adjudicator never produced a
	// verdict: too many failures, or a vote split past tolerance. The
	// split itself is still reportable evidence, but with no verdict no
	// individual replica can be blamed, so nobody is accused.
	_, err := q.adj.Adjudicate(slate)
	if o != nil {
		if answers := answerClasses(); answers > 1 {
			obs.Emit(o, obs.VoteDisagreement(name, req, answers))
		}
	}
	err = fmt.Errorf("quorum %s: %w", name, err)
	finish(nil, err)
	return zero, err
}
