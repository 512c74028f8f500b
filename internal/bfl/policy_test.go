package bfl

import (
	"testing"
	"time"

	"waitornot/internal/core"
	"waitornot/internal/fl"
	"waitornot/internal/simnet"
)

func mkUpdate(name string) *fl.Update {
	return &fl.Update{Client: name, Round: 1, Weights: []float32{1}, NumSamples: 1}
}

// walkObserver is runRound's observer step over hand-set arrivals: ups
// in client-name order as the chain reads them back, self's update in
// hand at selfTrainMs, each remote one readable at remote[name] (no
// commit interval), walked by simnet.WalkRound.
func walkObserver(policy core.Policy, self string, selfTrainMs float64, ups []*fl.Update, remote map[string]float64) ([]*fl.Update, float64) {
	sends := make([]simnet.Send, len(ups))
	for i, u := range ups {
		sends[i] = simnet.Send{TrainedMs: selfTrainMs, SentMs: remote[u.Client], Own: u.Client == self}
	}
	at, firedAt := simnet.WalkRound(policy, sends, 0)
	included := make([]*fl.Update, len(at))
	for i, j := range at {
		included[i] = ups[j]
	}
	return included, firedAt
}

// TestApplyPolicyTiedArrivals pins the tie-break: updates arriving at
// the exact same virtual time are processed in client-name order, so
// FirstK admits the lexicographically smaller name.
func TestApplyPolicyTiedArrivals(t *testing.T) {
	ups := []*fl.Update{mkUpdate("A"), mkUpdate("B"), mkUpdate("C")}
	arrivals := map[string]float64{"B": 100, "C": 100} // exact tie
	included, waitMs := walkObserver(core.Policy{K: 2}, "A", 10, ups, arrivals)
	if len(included) != 2 {
		t.Fatalf("included %d updates", len(included))
	}
	if included[0].Client != "A" || included[1].Client != "B" {
		t.Fatalf("tie broke to %s,%s; want A,B", included[0].Client, included[1].Client)
	}
	if waitMs != 100 {
		t.Fatalf("fired at %.0fms", waitMs)
	}
	// The mirror tie: swap which remote sorts first and the winner flips.
	arrivals = map[string]float64{"B": 200, "C": 100}
	included, _ = walkObserver(core.Policy{K: 2}, "A", 10, ups, arrivals)
	if included[1].Client != "C" {
		t.Fatalf("expected C to win the earlier slot, got %s", included[1].Client)
	}
}

// TestApplyPolicySelfTiedWithRemote: when the peer's own completion
// ties with a remote arrival, both are on hand when the policy probes,
// and the self update is among the included set.
func TestApplyPolicySelfTiedWithRemote(t *testing.T) {
	ups := []*fl.Update{mkUpdate("A"), mkUpdate("B")}
	arrivals := map[string]float64{"B": 50}
	included, waitMs := walkObserver(core.Policy{K: 1}, "A", 50, ups, arrivals)
	hasSelf := false
	for _, u := range included {
		if u.Client == "A" {
			hasSelf = true
		}
	}
	if !hasSelf {
		t.Fatal("self update missing from a tied round")
	}
	if waitMs != 50 {
		t.Fatalf("fired at %.0fms", waitMs)
	}
}

// TestApplyPolicyTimeoutBeforeRemotes: a Timeout that expires before
// any remote model exists cannot conjure data — aggregation happens at
// the first event at which the policy can see an expired deadline,
// which is the peer's own completion if that is already past the
// deadline, and includes only the peer's own model.
func TestApplyPolicyTimeoutBeforeRemotes(t *testing.T) {
	ups := []*fl.Update{mkUpdate("A"), mkUpdate("B"), mkUpdate("C")}
	arrivals := map[string]float64{"B": 500, "C": 900}
	policy := core.Policy{Deadline: 50 * time.Millisecond}
	// Self completes at 100ms, already past the 50ms deadline: the
	// round closes immediately with just the peer's own model.
	included, waitMs := walkObserver(policy, "A", 100, ups, arrivals)
	if len(included) != 1 || included[0].Client != "A" {
		names := make([]string, len(included))
		for i, u := range included {
			names[i] = u.Client
		}
		t.Fatalf("included %v; want only A", names)
	}
	if waitMs != 100 {
		t.Fatalf("fired at %.0fms; want 100 (own completion)", waitMs)
	}
}

// TestApplyPolicyTimeoutBeyondLastArrival: a deadline past every
// arrival falls back to aggregating everything at the last event.
func TestApplyPolicyTimeoutBeyondLastArrival(t *testing.T) {
	ups := []*fl.Update{mkUpdate("A"), mkUpdate("B")}
	arrivals := map[string]float64{"B": 80}
	policy := core.Policy{Deadline: time.Hour}
	included, waitMs := walkObserver(policy, "A", 10, ups, arrivals)
	if len(included) != 2 {
		t.Fatalf("included %d; want all", len(included))
	}
	if waitMs != 80 {
		t.Fatalf("fired at %.0fms; want 80 (last arrival)", waitMs)
	}
}

// TestApplyPolicySelfArrivesLastStillKept: even when every remote
// model beats the peer's own training and the policy would have fired
// long before, the peer's own update is never dropped.
func TestApplyPolicySelfArrivesLastStillKept(t *testing.T) {
	ups := []*fl.Update{mkUpdate("A"), mkUpdate("B"), mkUpdate("C")}
	arrivals := map[string]float64{"B": 5, "C": 6}
	included, waitMs := walkObserver(core.Policy{K: 2}, "A", 300, ups, arrivals)
	hasSelf := false
	for _, u := range included {
		if u.Client == "A" {
			hasSelf = true
		}
	}
	if !hasSelf {
		t.Fatal("self update dropped")
	}
	if waitMs != 300 {
		t.Fatalf("fired at %.0fms; want 300 (own completion gates the round)", waitMs)
	}
}
