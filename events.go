package waitornot

import "waitornot/internal/event"

// The streaming event layer: a running Experiment emits typed events
// in deterministic logical order — the order the sequential schedule
// (Parallelism: 1) would produce — no matter how many workers the
// engine actually uses. Progress bars, live dashboards, and
// early-stopping callers all consume the same stream, and attaching an
// observer never changes a result bit (determinism is enforced by the
// golden tests in events_test.go).
//
// Event order per decentralized round (one BlockCommitted precedes
// round 1: the identity-registration block, Round 0):
//
//	RoundStart → PeerTrained (per peer, in peer order)
//	           → BlockCommitted (the round's submission block)
//	           → ModelSubmitted (per peer)
//	           → AggregationDecided (per peer)
//	           → BlockCommitted (the round's decision block)
//	           → RoundEnd
//
// The vanilla experiment emits the same skeleton once per aggregation
// arm (Arm = "consider" / "not consider") with a single central
// AggregationDecided per round; a replication sweep (RunSweep) emits
// one SweepProgress per completed replication, in flat seed-major
// work-list order — and so does the trade-off study, a one-seed sweep:
// one per policy × backend arm, in grid order.
//
// A sharded run (KindSharded) emits shard-level events instead of the
// per-round skeleton: one ShardRoundEnd per shard round, one
// ShardModelCommitted per shard per merge epoch, and one GlobalMerge
// per cross-shard merge — all in virtual-clock order (ties broken by
// shard index), which the single-threaded scheduler makes identical at
// every Parallelism.
type (
	// Event is one observation from a running experiment; switch on
	// the concrete types below.
	Event = event.Event
	// RoundStart opens a communication round.
	RoundStart = event.RoundStart
	// PeerTrained reports one participant's completed local training.
	PeerTrained = event.PeerTrained
	// ModelSubmitted reports a model transaction committed on-chain.
	ModelSubmitted = event.ModelSubmitted
	// BlockCommitted reports one ledger commit, with the backend's
	// modeled commit latency.
	BlockCommitted = event.BlockCommitted
	// AggregationDecided reports one aggregation decision.
	AggregationDecided = event.AggregationDecided
	// PeerAggregated reports one un-barriered aggregation in a
	// KindAsync run, stamped with its virtual-clock instant.
	PeerAggregated = event.PeerAggregated
	// RoundEnd closes a communication round.
	RoundEnd = event.RoundEnd
	// SweepProgress reports one completed replication of a sweep
	// (RunSweep, or a KindTradeoff Run's one-seed sweep), in
	// deterministic flat work-list order.
	SweepProgress = event.SweepProgress
	// CampaignProgress reports one landed cell of a durable campaign
	// (RunCampaign): restored from the persisted log or freshly
	// computed and durably appended before the event fired. Done/Total
	// is the campaign's cross-restart progress meter.
	CampaignProgress = event.CampaignProgress
	// ShardRoundEnd reports one completed shard-local round in a
	// KindSharded run.
	ShardRoundEnd = event.ShardRoundEnd
	// ShardModelCommitted reports a shard publishing its model for
	// cross-shard merging at a merge-epoch boundary.
	ShardModelCommitted = event.ShardModelCommitted
	// GlobalMerge reports one cross-shard merge producing (and, sync
	// mode, pushing down) the global model.
	GlobalMerge = event.GlobalMerge
)

// EventString renders an event compactly for logs.
func EventString(ev Event) string { return event.String(ev) }

// Observer receives an Experiment's event stream. OnEvent calls are
// serialized (never concurrent with each other) and arrive in
// deterministic logical order; a slow observer slows the run but can
// never reorder events or change results.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// observerSink adapts an Observer to the engine's internal sink type;
// nil observers cost the engines a single nil check per event site.
func observerSink(o Observer) event.Sink {
	if o == nil {
		return nil
	}
	return func(ev event.Event) { o.OnEvent(ev) }
}
