package obs

// Fleet events are everything an executor reports besides the span
// callbacks of Observer: resilience-policy decisions, crash-recovery
// steps, networked-replica round trips and membership changes, quorum
// verdicts, latency-outlier ejections, and control-plane actions. They
// all travel one path — one flat Event record, one optional method,
// one Emit — and everything the built-in observers do with a kind is a
// row of the kinds table below: which ExecutorSnapshot counter it bumps
// (and thereby which /metrics series carries it, see counterRows), the
// guard on that binding, any second binding, and the label it leaves in
// the trace ring. Adding an event is one Kind, one row, one constructor.

import "time"

// Kind identifies one fleet event.
type Kind uint8

// The event kinds, in ExecutorSnapshot counter order. The constructor
// of the same name documents each kind's payload.
const (
	KindRequestShed Kind = iota
	KindDegradedServe
	KindBreakerStateChanged
	KindCheckpointTaken
	KindWALReplayed
	KindProcessRestarted
	KindEscalationRaised
	KindRPCCompleted
	KindHedgeLaunched
	KindHedgeWon
	KindReplicaStateChanged
	KindReplicaEjected
	KindReplicaReinstated
	KindProbeLaunched
	KindQuorumReached
	KindVoteDisagreement
	KindReplicaOutvoted
	KindControlActionTaken
	nKinds
)

// String returns the kind's name from the kinds table.
func (k Kind) String() string {
	if k >= nKinds {
		return "unknown"
	}
	return kinds[k].name
}

// Event is the record of one fleet event. It is flat — every kind uses
// Kind and Executor, and each constructor documents which of the other
// fields its kind fills — and it is passed by value: a pointer would
// escape through the EventObserver interface call and cost an
// allocation per event.
type Event struct {
	Kind Kind
	// Executor names the emitter the event is counted under: the
	// executor, remote client, detector, ejector, supervisor, durable
	// component, or controller.
	Executor string
	// Subject names what the event is about — an endpoint, replica,
	// variant, supervised child, degradation rung, or control action —
	// and is empty when the event concerns the executor as a whole.
	Subject string
	// Req is the request the event belongs to, 0 when it is not bound to
	// one (membership, recovery, ejection, and control events).
	Req uint64
	// N is the kind's count: launch order of an attempt, cumulative
	// restarts, votes, distinct answers, replayed records, probes.
	N int
	// Latency is the kind's duration: an RPC round trip, a restart's
	// downtime, an ejected endpoint's latency EWMA.
	Latency time.Duration
	// Err is the failure of an RPC round trip, or nil.
	Err error
	// From and To are a state transition: ReplicaState values on
	// KindReplicaStateChanged, BreakerState values on
	// KindBreakerStateChanged.
	From, To uint8

	Seq               uint64        // CheckpointTaken: last operation the snapshot covers
	Bytes             int64         // CheckpointTaken: snapshot size; WALReplayed: torn tail discarded
	Replies, Replicas int           // QuorumReached: settled answers, fleet size
	Median            time.Duration // ReplicaEjected: fleet median at the verdict
	Cause, Target     string        // ControlActionTaken: triggering evidence, reconfigured replica or variant
	Old, New          string        // ControlActionTaken: setting before and after
}

// EventObserver is the optional Observer extension receiving fleet
// events. Observers implement it in addition to Observer; emitters
// route events through Emit so that combined observers (Combine) fan
// them out to every member that implements it.
type EventObserver interface {
	Event(Event)
}

// Emit delivers ev to o if it (or any member of a combined observer)
// implements EventObserver. Nil observers are ignored.
func Emit(o Observer, ev Event) {
	if e, ok := o.(EventObserver); ok {
		e.Event(ev)
	}
}

// Event implements EventObserver for Nop.
func (Nop) Event(Event) {}

// Event implements EventObserver: the event reaches every member that
// implements the extension.
func (m multi) Event(ev Event) {
	for _, o := range m {
		Emit(o, ev)
	}
}

var (
	_ EventObserver = Nop{}
	_ EventObserver = multi(nil)
	_ EventObserver = (*Collector)(nil)
	_ EventObserver = (*TraceRecorder)(nil)
)

// kindRow is what the built-in observers do with one kind of event.
type kindRow struct {
	name string
	// counter is the ExecutorSnapshot counter the Collector bumps under
	// Event.Executor; noCounter (the zero value) bumps none.
	counter counterID
	// when, if set, guards the counter and the trace label: events it
	// rejects are delivered but leave no mark.
	when func(Event) bool
	// also is a binding beyond the counter.
	also func(*ExecutorStats, Event)
	// trace is the label the TraceRecorder appends (with Subject as the
	// detail) to the in-flight trace of Event.Req. Kinds without one are
	// either not bound to a request or too fine-grained for the ring;
	// the Collector keeps their counts.
	trace string
}

var kinds = [nKinds]kindRow{
	KindRequestShed:   {name: "request-shed", counter: cShed, trace: "shed"},
	KindDegradedServe: {name: "degraded-serve", counter: cDegraded, trace: "degraded-serve"},
	// Only transitions into open count: the "breaker tripped" signal
	// campaign reports and dashboards alert on.
	KindBreakerStateChanged: {name: "breaker-state-changed", counter: cBreakerOpens,
		when: func(ev Event) bool { return BreakerState(ev.To) == BreakerOpen }},
	KindCheckpointTaken: {name: "checkpoint-taken", counter: cCheckpoints},
	KindWALReplayed:     {name: "wal-replayed", counter: cWALReplays},
	// The downtime is the supervisor's MTTR sample, the source of the
	// recovery-time quantiles on the metrics endpoint.
	KindProcessRestarted: {name: "process-restarted", counter: cRestarts,
		also: func(e *ExecutorStats, ev Event) { e.mttr.Observe(ev.Latency) }},
	KindEscalationRaised: {name: "escalation-raised", counter: cEscalations},
	// Round trips feed the endpoint's execution/failure pair and latency
	// histogram under the client's name, so /metrics exports per-endpoint
	// RPC quantiles exactly like per-variant execution latency.
	KindRPCCompleted: {name: "rpc-completed",
		also: func(e *ExecutorStats, ev Event) { e.variant(ev.Subject).observe(ev.Latency, ev.Err) }},
	KindHedgeLaunched: {name: "hedge-launched", counter: cHedges, trace: "hedge"},
	// A primary win (attempt 1) means the fan-out was wasted work, not
	// that a hedge won.
	KindHedgeWon: {name: "hedge-won", counter: cHedgeWins, trace: "hedge-won",
		when: func(ev Event) bool { return ev.N > 1 }},
	// Transitions into suspect and dead are the "replica failed" signals
	// availability reports alert on; recoveries are not counted.
	KindReplicaStateChanged: {name: "replica-state-changed",
		when: func(ev Event) bool { return ReplicaState(ev.To) != ReplicaAlive },
		also: func(e *ExecutorStats, ev Event) {
			switch ReplicaState(ev.To) {
			case ReplicaSuspect:
				e.counters[cSuspects].Add(1)
			case ReplicaDead:
				e.counters[cDeaths].Add(1)
			}
		}},
	KindReplicaEjected:    {name: "replica-ejected", counter: cEjections},
	KindReplicaReinstated: {name: "replica-reinstated", counter: cReinstatements},
	KindProbeLaunched:     {name: "probe-launched", counter: cProbeLaunches},
	// The verdict is already visible as the request outcome, so only the
	// disagreements are worth a line in the trace ring.
	KindQuorumReached:    {name: "quorum-reached", counter: cQuorums},
	KindVoteDisagreement: {name: "vote-disagreement", counter: cVoteDisagreements, trace: "vote-disagreement"},
	// A vote loss is a value fault of that replica even though its round
	// trip succeeded, so it also counts as a failure of the endpoint and
	// per-endpoint dashboards show which replica keeps losing votes. It
	// is the value-fault analogue of the detector's suspect counter: a
	// replica that answers promptly but wrongly never misses a heartbeat
	// (the paper's malicious-fault column of Table 1).
	KindReplicaOutvoted: {name: "replica-outvoted", counter: cOutvoted, trace: "outvoted",
		also: func(e *ExecutorStats, ev Event) { e.variant(ev.Subject).failures.Add(1) }},
	// Actions are also counted per actuator kind (as a variant of the
	// controller), so /metrics breaks the intervention rate down by type.
	KindControlActionTaken: {name: "control-action", counter: cControlActions,
		also: func(e *ExecutorStats, ev Event) { e.variant(ev.Subject).executions.Add(1) }},
}

// Event implements EventObserver: the kind's table row names the
// counter to bump under the emitting executor and any further binding.
func (c *Collector) Event(ev Event) {
	row := &kinds[ev.Kind]
	if row.when != nil && !row.when(ev) {
		return
	}
	e := c.exec(ev.Executor)
	if row.counter != noCounter {
		e.counters[row.counter].Add(1)
	}
	if row.also != nil {
		row.also(e, ev)
	}
}

// Event implements EventObserver: kinds with a trace label are appended
// to the in-flight trace of their request.
func (t *TraceRecorder) Event(ev Event) {
	row := &kinds[ev.Kind]
	if row.trace == "" || (row.when != nil && !row.when(ev)) {
		return
	}
	t.event(ev.Req, row.trace, ev.Subject)
}

// BreakerState is the state of a circuit breaker.
type BreakerState uint8

const (
	// BreakerClosed: requests flow normally; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected fast without executing.
	BreakerOpen
	// BreakerHalfOpen: a single probe request at a time is admitted to
	// test whether the protected variant has recovered.
	BreakerHalfOpen
)

// String returns the Prometheus-label-safe name of the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ReplicaState is the failure detector's opinion of one remote replica.
type ReplicaState uint8

const (
	// ReplicaAlive: heartbeats are being acknowledged.
	ReplicaAlive ReplicaState = iota
	// ReplicaSuspect: enough heartbeats were missed that the replica is
	// routed around, but not enough to declare it dead.
	ReplicaSuspect
	// ReplicaDead: the replica missed the dead threshold; only used when
	// nothing healthier remains.
	ReplicaDead
)

// String returns the Prometheus-label-safe name of the state.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaAlive:
		return "alive"
	case ReplicaSuspect:
		return "suspect"
	case ReplicaDead:
		return "dead"
	default:
		return "unknown"
	}
}

// RequestShed reports that the executor's bulkhead rejected the request
// without executing any variant (overload fast-fail).
func RequestShed(executor string, req uint64) Event {
	return Event{Kind: KindRequestShed, Executor: executor, Req: req}
}

// DegradedServe reports that the request was answered by the
// degradation ladder instead of a live variant; source (Subject) names
// the rung: "cache" for the last-good value, "degraded-variant" for the
// configured fallback variant.
func DegradedServe(executor string, req uint64, source string) Event {
	return Event{Kind: KindDegradedServe, Executor: executor, Req: req, Subject: source}
}

// BreakerStateChanged reports a circuit-breaker transition for one
// variant (Subject) under one executor.
func BreakerStateChanged(executor, variant string, from, to BreakerState) Event {
	return Event{Kind: KindBreakerStateChanged, Executor: executor, Subject: variant, From: uint8(from), To: uint8(to)}
}

// CheckpointTaken reports that component durably committed a snapshot
// of bytes encoded size covering all operations up to and including
// seq. A durable store is the state substrate of exactly one component,
// so checkpoints are counted under the component's name.
func CheckpointTaken(component string, seq uint64, bytes int) Event {
	return Event{Kind: KindCheckpointTaken, Executor: component, Seq: seq, Bytes: int64(bytes)}
}

// WALReplayed reports a completed recovery replay for component:
// records (N) operations were re-applied on top of the restored
// snapshot, and truncated (Bytes) bytes of torn tail were discarded
// from the log.
func WALReplayed(component string, records int, truncated int64) Event {
	return Event{Kind: KindWALReplayed, Executor: component, N: records, Bytes: truncated}
}

// ProcessRestarted reports that the supervisor executor restarted child
// (Subject); restarts (N) is the child's cumulative restart count and
// downtime (Latency) the measured failure-to-ready recovery time.
func ProcessRestarted(executor, child string, restarts int, downtime time.Duration) Event {
	return Event{Kind: KindProcessRestarted, Executor: executor, Subject: child, N: restarts, Latency: downtime}
}

// EscalationRaised reports that the supervisor executor exceeded its
// restart-intensity window on child (Subject) and escalated the failure
// to its parent instead of restarting again.
func EscalationRaised(executor, child string) Event {
	return Event{Kind: KindEscalationRaised, Executor: executor, Subject: child}
}

// RPCCompleted reports one RPC round trip from client (the remote
// variant's name) to endpoint (Subject). Hedged attempts report one
// each, including attempts whose result was discarded because another
// attempt won.
func RPCCompleted(client, endpoint string, req uint64, latency time.Duration, err error) Event {
	return Event{Kind: KindRPCCompleted, Executor: client, Subject: endpoint, Req: req, Latency: latency, Err: err}
}

// HedgeLaunched reports that the client, still waiting on earlier
// attempts, fanned the request out to endpoint (Subject); attempt (N)
// counts from 1 for the primary, so hedges report 2, 3, ...
func HedgeLaunched(client, endpoint string, req uint64, attempt int) Event {
	return Event{Kind: KindHedgeLaunched, Executor: client, Subject: endpoint, Req: req, N: attempt}
}

// HedgeWon reports which attempt's result the client returned: attempt
// (N) 1 means the primary won, higher attempts mean a hedge overtook it.
func HedgeWon(client, endpoint string, req uint64, attempt int) Event {
	return Event{Kind: KindHedgeWon, Executor: client, Subject: endpoint, Req: req, N: attempt}
}

// ReplicaStateChanged reports a failure-detector membership transition
// for one replica (Subject).
func ReplicaStateChanged(detector, replica string, from, to ReplicaState) Event {
	return Event{Kind: KindReplicaStateChanged, Executor: detector, Subject: replica, From: uint8(from), To: uint8(to)}
}

// ReplicaEjected reports that the ejector removed endpoint (Subject)
// from rotation: its latency EWMA (Latency) exceeded the ejection
// threshold relative to the fleet median at the moment of the verdict.
func ReplicaEjected(ejector, endpoint string, ewma, median time.Duration) Event {
	return Event{Kind: KindReplicaEjected, Executor: ejector, Subject: endpoint, Latency: ewma, Median: median}
}

// ReplicaReinstated reports that an ejected endpoint (Subject)
// completed probation — probes (N) consecutive probes came back fast —
// and was restored to full rotation.
func ReplicaReinstated(ejector, endpoint string, probes int) Event {
	return Event{Kind: KindReplicaReinstated, Executor: ejector, Subject: endpoint, N: probes}
}

// ProbeLaunched reports that a routing decision granted an ejected
// endpoint (Subject) one trickle probe: a real request routed to it so
// its recovery can be observed.
func ProbeLaunched(ejector, endpoint string) Event {
	return Event{Kind: KindProbeLaunched, Executor: ejector, Subject: endpoint}
}

// QuorumReached reports that the client's adjudicator reached a
// verdict: votes (N) replies agreed on the winning answer, out of
// replies settled answers from a fleet of replicas endpoints. A verdict
// reached with replies < replicas means the stragglers were canceled.
func QuorumReached(client string, req uint64, votes, replies, replicas int) Event {
	return Event{Kind: KindQuorumReached, Executor: client, Req: req, N: votes, Replies: replies, Replicas: replicas}
}

// VoteDisagreement reports that the settled successful replies of one
// request were not unanimous: answers (N, at least 2) distinct answers
// were observed. Emitted at most once per request, whether or not a
// quorum was still reached.
func VoteDisagreement(client string, req uint64, answers int) Event {
	return Event{Kind: KindVoteDisagreement, Executor: client, Req: req, N: answers}
}

// ReplicaOutvoted reports that endpoint (Subject) returned a successful
// but losing answer on a request the quorum decided differently — the
// per-replica evidence a lying replica accumulates.
func ReplicaOutvoted(client, endpoint string, req uint64) Event {
	return Event{Kind: KindReplicaOutvoted, Executor: client, Subject: endpoint, Req: req}
}

// ControlActionTaken reports one reconfiguration performed by the
// autonomic controller. action (Subject) names the actuator kind (e.g.
// "replace", "hedge-tune", "deposit-tune", "rejuvenate", "substitute"),
// cause the evidence that triggered it (e.g. "detector:dead",
// "slo:fast-burn", "diagnosis:aging"), target the replica or variant
// acted on, and oldValue/newValue the setting before and after
// (free-form, e.g. durations or replica names).
func ControlActionTaken(controller, action, cause, target, oldValue, newValue string) Event {
	return Event{Kind: KindControlActionTaken, Executor: controller, Subject: action,
		Cause: cause, Target: target, Old: oldValue, New: newValue}
}
