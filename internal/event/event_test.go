package event

import "testing"

// TestEventNamesStable pins the wire names observers switch on.
func TestEventNamesStable(t *testing.T) {
	cases := map[string]Event{
		"round-start":           RoundStart{},
		"peer-trained":          PeerTrained{},
		"model-submitted":       ModelSubmitted{},
		"block-committed":       BlockCommitted{},
		"aggregation-decided":   AggregationDecided{},
		"peer-aggregated":       PeerAggregated{},
		"round-end":             RoundEnd{},
		"sweep-progress":        SweepProgress{},
		"shard-round-end":       ShardRoundEnd{},
		"shard-model-committed": ShardModelCommitted{},
		"global-merge":          GlobalMerge{},
	}
	for want, ev := range cases {
		if got := ev.EventName(); got != want {
			t.Fatalf("EventName = %q, want %q", got, want)
		}
	}
}

// TestNilSinkEmit: a nil sink is a valid no-op receiver.
func TestNilSinkEmit(t *testing.T) {
	var s Sink
	s.Emit(RoundStart{Round: 1}) // must not panic
}

// TestString renders the compact forms tests and CLIs rely on.
func TestString(t *testing.T) {
	cases := map[string]Event{
		"round-start r2":               RoundStart{Round: 2},
		"round-start r2 [consider]":    RoundStart{Round: 2, Arm: "consider"},
		"peer-trained r1 A":            PeerTrained{Round: 1, Peer: "A"},
		"model-submitted r3 B":         ModelSubmitted{Round: 3, Peer: "B"},
		"aggregation-decided r1 C n=3": AggregationDecided{Round: 1, Peer: "C", Included: 3},
		"round-end r4":                 RoundEnd{Round: 4},
		"sweep-progress 2/6 seed=3 wait-all": SweepProgress{
			Index: 1, Total: 6, Seed: 3, Policy: "wait-all"},
		"sweep-progress 6/12 seed=2 first-1@pow": SweepProgress{
			Index: 5, Total: 12, Seed: 2, Policy: "first-1", Backend: "pow"},
		"block-committed r2 pow h5 n=3":       BlockCommitted{Round: 2, Backend: "pow", Height: 5, Txs: 3},
		"block-committed r2 pow h5 n=3 rej=1": BlockCommitted{Round: 2, Backend: "pow", Height: 5, Txs: 3, Rejected: 1},
		"peer-aggregated A r2 t=120 n=2":      PeerAggregated{Peer: "A", Round: 2, VirtualMs: 120, Included: 2},
		"sweep-progress 8/12 seed=2 first-1@pow": SweepProgress{
			Done: 3, Total: 12, Index: 7, Seed: 2, Policy: "first-1", Backend: "pow"},
		"sweep-progress 1/12 seed=1 wait-all (restored)": SweepProgress{
			Done: 1, Total: 12, Index: 0, Seed: 1, Policy: "wait-all", Restored: true},
		"sweep-progress 3/12 seed=1 first-1@pow (restored)": SweepProgress{
			Done: 2, Total: 12, Index: 2, Seed: 1, Policy: "first-1", Backend: "pow", Restored: true},
		"shard-round-end s1 r3 t=900 wait=41.1 n=2.00": ShardRoundEnd{
			Shard: 1, Round: 3, VirtualMs: 900, MaxWaitMs: 41.1, MeanIncluded: 2},
		"shard-model-committed s0 e2 r4 acc=0.2500": ShardModelCommitted{
			Shard: 0, Epoch: 2, Round: 4, Accuracy: 0.25},
		"global-merge e1 sync n=2 acc=0.3000 wait=50.0": GlobalMerge{
			Epoch: 1, Mode: "sync", Included: 2, Accuracy: 0.3, WaitMs: 50},
		"global-merge e2 s1 async n=2 acc=0.3000 wait=10.0": GlobalMerge{
			Epoch: 2, Shard: 1, Mode: "async", Included: 2, Accuracy: 0.3, WaitMs: 10},
	}
	for want, ev := range cases {
		if got := String(ev); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}
