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
//
// The two clients differ only in their verdict rule. A Quorum is a
// Remote (no hedging, breakers, or liveness routing: a quorum queries
// every replica regardless of opinion) whose fan-out launches every
// endpoint at once and settles each reply onto a ballot instead of
// taking the first acceptable one; the launch/settle loop, lineage,
// observer bracket, and straggler handling are Remote's.

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
// moment a quorum is reached Execute returns without the stragglers,
// keeping the fast path at roughly the (n-k)-th fastest replica rather
// than the slowest; each straggler finishes its exchange in the
// background and returns its connection to the pool, so the next
// request need not redial it. Only the caller's cancellation or the
// attempt deadline cuts a straggler off — or the verdict, when its
// replica already has maxStragglers abandoned calls outstanding.
//
// Because it satisfies core.Variant, a Quorum plugs unchanged into the
// local pattern executors — a quorum fleet can itself be one variant
// of a recovery block or N-version set.
type Quorum[I, O any] struct {
	r *Remote[I, O] // r.rule is this quorum's verdict rule
}

var _ core.Variant[int, int] = (*Quorum[int, int])(nil)

// quorumRule is the verdict rule a Quorum installs on its Remote.
type quorumRule[O any] struct {
	adj    core.Adjudicator[O]
	eq     core.Equal[O]
	faults int
	// minReplies is left as configured (possibly zero) and resolved per
	// request against the fleet size of that request's endpoint view, so
	// a fleet grown or shrunk at runtime keeps the n-k default honest.
	minReplies int
	detector   *Detector
}

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
	r, err := newRemote[I, O]("quorum", name,
		RemoteConfig{CallTimeout: cfg.CallTimeout, Observer: cfg.Observer}, endpoints)
	if err != nil {
		return nil, err
	}
	r.rule = &quorumRule[O]{
		adj: adj, eq: eq, faults: cfg.Faults,
		minReplies: cfg.MinReplies, detector: cfg.Detector,
	}
	return &Quorum[I, O]{r: r}, nil
}

// Name implements core.Variant.
func (q *Quorum[I, O]) Name() string { return q.r.Name() }

// Execute implements core.Variant: the full fan-out with incremental
// adjudication (see fanout.vote).
//
// With an observer attached the fan-out is one observed request span
// under the Quorum's name with one RPCAttempted lineage record per
// replica (losers and canceled stragglers included), the adjudication
// verdict, and the quorum events: QuorumReached on a verdict,
// VoteDisagreement when the settled successes were not unanimous, and
// ReplicaOutvoted (plus a Detector accusation) per losing reply.
func (q *Quorum[I, O]) Execute(ctx context.Context, input I) (O, error) {
	return q.r.Execute(ctx, input)
}

// Replicas returns the fleet size n.
func (q *Quorum[I, O]) Replicas() int { return len(q.r.view().endpoints) }

// TolerableFaults returns k, the configured wrong-answer tolerance.
func (q *Quorum[I, O]) TolerableFaults() int { return q.r.rule.faults }

// AddEndpoint splices a new replica into the live fleet. Requests
// already fanned out keep the endpoint view they captured; the next
// Execute votes over the grown fleet.
func (q *Quorum[I, O]) AddEndpoint(ep Endpoint) error { return q.r.AddEndpoint(ep) }

// RemoveEndpoint takes a replica out of the live fleet and cancels any
// straggler still blocked on it. Removal is refused when it would
// shrink the fleet below the 2k+1 floor the fault-tolerance target
// requires — a controller must splice the replacement in before it
// retires the convicted replica.
func (q *Quorum[I, O]) RemoveEndpoint(name string) error {
	return q.r.removeEndpoint(name, vote.VersionsNeeded(q.r.rule.faults))
}

// Endpoints returns the current replica names in configured order.
func (q *Quorum[I, O]) Endpoints() []string { return q.r.Endpoints() }

// Close releases every pooled and in-flight connection; blocked calls
// unblock with a connection error. Idempotent.
func (q *Quorum[I, O]) Close() error { return q.r.Close() }

// openBallot sets up one request's ballot, in the slate a recycled
// racer kept if it is large enough: every endpoint's slot starts
// pending, and MinReplies resolves against this request's fleet size.
func (f *fanout[I, O]) openBallot() {
	n := len(f.v.endpoints)
	f.need = f.r.rule.minReplies
	if f.need <= 0 {
		f.need = n - f.r.rule.faults
	}
	f.need = min(f.need, n)
	if cap(f.slate) < n {
		f.slate = make([]core.Result[O], n)
	}
	f.slate = f.slate[:n]
	for ep := range f.slate {
		f.slate[ep] = core.Result[O]{Variant: f.v.endpoints[ep].Name, Err: errStragglerPending}
	}
	if f.o != nil && cap(f.records) < n {
		f.records = make([]attemptRecord, 0, n)
	}
}

// vote is the quorum verdict rule. The reply takes its endpoint's slot
// on the slate; once need replies have settled, every further settle
// re-runs the adjudicator, and the first verdict wins. A strict-majority
// adjudicator over the padded slate is monotone — pending replies can
// only add votes, never dethrone a majority already reached — so
// deciding early is sound. On a verdict every settled reply is
// attributed to it and each loser becomes evidence: a ReplicaOutvoted
// event and a detector accusation.
func (f *fanout[I, O]) vote(res attemptResult[O]) (O, bool) {
	q, name := f.r.rule, f.r.name
	f.slate[res.ep] = core.Result[O]{
		Variant: f.v.endpoints[res.ep].Name,
		Value:   res.value, Err: res.err, Latency: res.latency,
	}
	f.replies++
	if f.replies < f.need {
		var zero O
		return zero, false
	}
	verdict, err := q.adj.Adjudicate(f.slate)
	if err != nil {
		f.lastErr = err // no quorum yet; wait for more replies
		var zero O
		return zero, false
	}
	votes, disagreed := 0, false
	for i := 0; i < f.launched; i++ {
		reply := f.slate[f.order[i]]
		if !reply.OK() { // failed, or still pending
			continue
		}
		if q.eq(reply.Value, verdict) {
			votes++
			if f.records != nil {
				f.records[i].Won = true
			}
			continue
		}
		disagreed = true
		obs.Emit(f.o, obs.ReplicaOutvoted(name, reply.Variant, f.req))
		if q.detector != nil {
			q.detector.Accuse(reply.Variant)
		}
	}
	if disagreed && f.o != nil {
		obs.Emit(f.o, obs.VoteDisagreement(name, f.req, f.answerClasses()))
	}
	obs.Emit(f.o, obs.QuorumReached(name, f.req, votes, f.replies, len(f.slate)))
	f.finish(nil)
	return verdict, true
}

// noVerdict is the error of a request whose replicas all settled without
// the adjudicator producing a verdict: too many failures, or a vote split
// past tolerance. The split itself is still reportable evidence, but with
// no verdict no individual replica can be blamed, so nobody is accused.
func (f *fanout[I, O]) noVerdict() error {
	if f.o != nil {
		if answers := f.answerClasses(); answers > 1 {
			obs.Emit(f.o, obs.VoteDisagreement(f.r.name, f.req, answers))
		}
	}
	return fmt.Errorf("quorum %s: %w", f.r.name, f.lastErr)
}

// answerClasses counts the equivalence classes among the settled
// successful replies under eq. It copies reply values, so it is only
// called with an observer attached to report the count to.
func (f *fanout[I, O]) answerClasses() int {
	var reps []O
outer:
	for _, reply := range f.slate {
		if !reply.OK() {
			continue
		}
		for _, r := range reps {
			if f.r.rule.eq(r, reply.Value) {
				continue outer
			}
		}
		reps = append(reps, reply.Value)
	}
	return len(reps)
}
