// Package event defines the typed event stream the experiment engines
// emit while they run: round boundaries, per-peer training and
// submission milestones, aggregation decisions, and per-policy
// completions in the trade-off study.
//
// # Determinism contract
//
// Events are part of the public Experiment API's observability layer,
// so they obey the same determinism rules as results (see
// internal/par):
//
//   - Events are emitted in logical order — the order the sequential
//     schedule would produce — regardless of the engine's Parallelism.
//     Engines achieve this by emitting only from the coordinator
//     goroutine at deterministic barriers (after a worker pool drains,
//     in index order), or through an order-restoring buffer when a
//     stage streams (the trade-off study's PolicyDone events).
//   - Sink invocations are serialized: a sink is never called
//     concurrently with itself.
//   - A sink observes the run; it cannot perturb it. Attaching a sink
//     changes no result bit. A slow sink slows the run down but cannot
//     reorder or drop events.
package event

import "fmt"

// Event is one observation from a running experiment. Concrete types
// below; switch on them:
//
//	switch ev := ev.(type) {
//	case event.RoundStart:    ...
//	case event.PeerTrained:   ...
//	}
type Event interface {
	// EventName is the event's stable wire name ("round-start", ...).
	EventName() string
}

// Sink receives events. A nil Sink is valid and discards everything —
// engines emit through Sink.Emit, so "no observer" costs one nil check.
type Sink func(Event)

// Emit sends ev to the sink if one is attached.
func (s Sink) Emit(ev Event) {
	if s != nil {
		s(ev)
	}
}

// RoundStart opens communication round Round. Arm distinguishes the
// vanilla experiment's aggregation arms ("consider" / "not consider");
// it is empty for the decentralized run.
type RoundStart struct {
	Round int
	Arm   string
}

// EventName implements Event.
func (RoundStart) EventName() string { return "round-start" }

// PeerTrained reports that one participant finished local training for
// the round. SimMs is the deterministic simulated training duration
// used by the arrival-time model (0 in the vanilla experiment, which
// has no arrival model). VirtualMs is the completion instant on the
// shared virtual clock (populated by the asynchronous engine, where
// peers run un-barriered; 0 in the barriered runner, whose arrival
// model restarts each round).
type PeerTrained struct {
	Round     int
	Peer      string
	Arm       string
	Samples   int
	SimMs     float64
	VirtualMs float64
}

// EventName implements Event.
func (PeerTrained) EventName() string { return "peer-trained" }

// ModelSubmitted reports that a peer's signed model transaction was
// committed on-chain (decentralized experiment only). Bytes is the
// encoded weight payload size. VirtualMs is the instant the
// transaction reached the gossiped pending set on the virtual clock
// (asynchronous engine only; 0 in the barriered runner).
type ModelSubmitted struct {
	Round     int
	Peer      string
	Bytes     int
	VirtualMs float64
}

// EventName implements Event.
func (ModelSubmitted) EventName() string { return "model-submitted" }

// BlockCommitted reports one ledger commit in the decentralized
// experiment: the registration block (Round 0), then a submission and
// a decision block per round. Backend names the consensus substrate,
// Height the block number (batch index for the instant backend), and
// LatencyMs the backend's modeled commit latency — the block-interval
// delay wait policies face when commit latency is modeled.
// VirtualMs is the commit's timestamp on the shared virtual clock —
// the instant the batch becomes readable on every peer's view.
type BlockCommitted struct {
	Round     int
	Backend   string
	Height    uint64
	Txs       int
	GasUsed   uint64
	LatencyMs float64
	VirtualMs float64
	// Rejected counts submissions the backend's model verification
	// excluded from the aggregation batch (pbft; 0 elsewhere).
	Rejected int
}

// EventName implements Event.
func (BlockCommitted) EventName() string { return "block-committed" }

// AggregationDecided reports one aggregation decision. In the
// decentralized run every peer decides for itself (Peer names it); in
// the vanilla run the central aggregator decides once per round and
// Peer is empty. Included counts the models admitted by the wait
// policy, WaitMs the simulated wait before it fired, and Accuracy the
// adopted model's test accuracy (mean across clients for vanilla).
type AggregationDecided struct {
	Round       int
	Peer        string
	Arm         string
	Included    int
	WaitMs      float64
	ChosenCombo string
	Accuracy    float64
	Rejected    []string
}

// EventName implements Event.
func (AggregationDecided) EventName() string { return "aggregation-decided" }

// PeerAggregated reports one peer's un-barriered aggregation in the
// asynchronous engine: at VirtualMs on the shared clock the peer's
// wait policy fired, it merged Included available updates with
// staleness-weighted averaging (MeanStalenessMs is their mean age),
// adopted the result at Accuracy on its test set, and immediately
// started its next local round. Round is the peer's own round counter
// — peers drift apart by design, which is the point of async mode.
type PeerAggregated struct {
	Round           int
	Peer            string
	VirtualMs       float64
	WaitMs          float64
	Included        int
	MeanStalenessMs float64
	Accuracy        float64
	Rejected        []string
}

// EventName implements Event.
func (PeerAggregated) EventName() string { return "peer-aggregated" }

// RoundEnd closes communication round Round (same Arm convention as
// RoundStart).
type RoundEnd struct {
	Round int
	Arm   string
}

// EventName implements Event.
func (RoundEnd) EventName() string { return "round-end" }

// PolicyDone reports one completed wait policy in the trade-off study,
// with its headline outcome — and is the outcome the trade-off report
// keeps. Index is the policy's position in the sweep; events arrive in
// index order even when policies run concurrently.
type PolicyDone struct {
	Index  int
	Policy string
	// Backend names the consensus substrate the arm ran on; empty when
	// the sweep ran on the experiment's single default backend.
	Backend string
	// FinalAccuracy is the mean adopted-model test accuracy across
	// peers in the final round; MeanWaitMs the mean per-round
	// aggregation wait across peers and rounds (simulated arrival-time
	// model); MeanIncluded the mean number of models aggregated per
	// round.
	FinalAccuracy float64
	MeanWaitMs    float64
	MeanIncluded  float64
}

// EventName implements Event.
func (PolicyDone) EventName() string { return "policy-done" }

// SweepProgress reports one completed replication of a multi-seed
// sweep: the run at (Seed, Policy, Backend) finished with the headline
// metrics below. Index is the replication's position in the flat
// seed-major work list and Total the sweep size; events arrive in
// index order even when replications run concurrently, so Index/Total
// double as a deterministic progress meter.
type SweepProgress struct {
	Index  int
	Total  int
	Seed   uint64
	Policy string
	// Backend names the consensus substrate the replication ran on;
	// empty when the sweep ran on the unnamed default.
	Backend       string
	FinalAccuracy float64
	MeanWaitMs    float64
	MeanIncluded  float64
}

// EventName implements Event.
func (SweepProgress) EventName() string { return "sweep-progress" }

// CampaignProgress reports one landed cell of a durable campaign
// (RunCampaign): cell Index of the flat work list is done, either
// restored from the campaign's persisted log (Restored — no compute
// spent) or freshly computed and durably appended before this event
// fired. Done counts landed cells including every prior session's, so
// Done/Total is the campaign's true progress meter across process
// restarts. Restored cells stream first in index order, then computed
// cells in work-list order, making the stream deterministic at any
// Parallelism.
type CampaignProgress struct {
	Index    int
	Total    int
	Done     int
	Restored bool
	Seed     uint64
	Policy   string
	// Backend names the consensus substrate the cell ran on; empty
	// when the campaign ran on the unnamed default.
	Backend       string
	FinalAccuracy float64
	MeanWaitMs    float64
	MeanIncluded  float64
}

// EventName implements Event.
func (CampaignProgress) EventName() string { return "campaign-progress" }

// ShardRoundEnd reports one completed shard-local aggregation round in
// the sharded hierarchy: shard Shard finished its round Round at
// VirtualMs on the shared clock, its slowest peer waited MaxWaitMs
// (CumWaitMs is the shard's cumulative wait so far), and the shard's
// peers admitted MeanIncluded updates on average. Policy names the
// wait policy the round ran under (the adaptive controller swaps it
// per merge epoch). The sharded report's per-shard round record is this
// value.
type ShardRoundEnd struct {
	Shard        int
	Round        int
	Policy       string
	MaxWaitMs    float64
	CumWaitMs    float64
	VirtualMs    float64
	MeanIncluded float64
}

// EventName implements Event.
func (ShardRoundEnd) EventName() string { return "shard-round-end" }

// ShardModelCommitted reports a shard publishing its model for
// cross-shard merging: at the end of merge epoch Epoch (after Round
// shard rounds) shard Shard's sample-weighted shard model — Samples
// training samples behind it — scored Accuracy on the held-out global
// evaluation set.
type ShardModelCommitted struct {
	Shard     int
	Epoch     int
	Round     int
	Policy    string
	Samples   int
	Accuracy  float64
	VirtualMs float64
	CumWaitMs float64
}

// EventName implements Event.
func (ShardModelCommitted) EventName() string { return "shard-model-committed" }

// GlobalMerge reports one cross-shard merge producing a global model.
// Mode is "sync" (barrier: every shard contributed a fresh model and
// all shards adopt the result) or "async" (shard Shard arrived and
// merged against every shard's latest model, staleness-weighted; only
// the arriving shard adopts). Shard is -1 for sync merges. Included
// counts contributing shard models, Accuracy the global model on the
// held-out evaluation set, WaitMs the fleet's cumulative policy-wait
// at the merge (the trade-off study's time axis, max over shards,
// monotone), VirtualMs the merge instant on the shared clock. The
// sharded report's merge trajectory is a list of these values.
type GlobalMerge struct {
	Epoch     int
	Shard     int
	Mode      string
	Included  int
	Accuracy  float64
	WaitMs    float64
	VirtualMs float64
}

// EventName implements Event.
func (GlobalMerge) EventName() string { return "global-merge" }

// String renders an event compactly for logs and tests.
func String(ev Event) string {
	switch e := ev.(type) {
	case RoundStart:
		return fmt.Sprintf("%s r%d%s", e.EventName(), e.Round, armSuffix(e.Arm))
	case PeerTrained:
		return fmt.Sprintf("%s r%d %s%s", e.EventName(), e.Round, e.Peer, armSuffix(e.Arm))
	case ModelSubmitted:
		return fmt.Sprintf("%s r%d %s", e.EventName(), e.Round, e.Peer)
	case BlockCommitted:
		s := fmt.Sprintf("%s r%d %s h%d n=%d", e.EventName(), e.Round, e.Backend, e.Height, e.Txs)
		if e.Rejected > 0 {
			s += fmt.Sprintf(" rej=%d", e.Rejected)
		}
		return s
	case AggregationDecided:
		return fmt.Sprintf("%s r%d %s%s n=%d", e.EventName(), e.Round, e.Peer, armSuffix(e.Arm), e.Included)
	case PeerAggregated:
		return fmt.Sprintf("%s %s r%d t=%.0f n=%d", e.EventName(), e.Peer, e.Round, e.VirtualMs, e.Included)
	case RoundEnd:
		return fmt.Sprintf("%s r%d%s", e.EventName(), e.Round, armSuffix(e.Arm))
	case PolicyDone:
		if e.Backend != "" {
			return fmt.Sprintf("%s %d %s@%s", e.EventName(), e.Index, e.Policy, e.Backend)
		}
		return fmt.Sprintf("%s %d %s", e.EventName(), e.Index, e.Policy)
	case SweepProgress:
		if e.Backend != "" {
			return fmt.Sprintf("%s %d/%d seed=%d %s@%s", e.EventName(), e.Index+1, e.Total, e.Seed, e.Policy, e.Backend)
		}
		return fmt.Sprintf("%s %d/%d seed=%d %s", e.EventName(), e.Index+1, e.Total, e.Seed, e.Policy)
	case CampaignProgress:
		cell := e.Policy
		if e.Backend != "" {
			cell += "@" + e.Backend
		}
		s := fmt.Sprintf("%s %d/%d cell=%d seed=%d %s", e.EventName(), e.Done, e.Total, e.Index, e.Seed, cell)
		if e.Restored {
			s += " (restored)"
		}
		return s
	case ShardRoundEnd:
		return fmt.Sprintf("%s s%d r%d t=%.0f wait=%.1f n=%.2f", e.EventName(), e.Shard, e.Round, e.VirtualMs, e.MaxWaitMs, e.MeanIncluded)
	case ShardModelCommitted:
		return fmt.Sprintf("%s s%d e%d r%d acc=%.4f", e.EventName(), e.Shard, e.Epoch, e.Round, e.Accuracy)
	case GlobalMerge:
		if e.Mode == "sync" {
			return fmt.Sprintf("%s e%d sync n=%d acc=%.4f wait=%.1f", e.EventName(), e.Epoch, e.Included, e.Accuracy, e.WaitMs)
		}
		return fmt.Sprintf("%s e%d s%d %s n=%d acc=%.4f wait=%.1f", e.EventName(), e.Epoch, e.Shard, e.Mode, e.Included, e.Accuracy, e.WaitMs)
	default:
		return ev.EventName()
	}
}

func armSuffix(arm string) string {
	if arm == "" {
		return ""
	}
	return " [" + arm + "]"
}
