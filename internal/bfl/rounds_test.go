package bfl

import (
	"context"
	"encoding/json"
	"testing"

	"waitornot/internal/core"
)

// TestRoundEngineMatchesFlat drives RoundEngine by hand with the flat
// runner's timestamps (registration at 1 step, round k's commits at
// 2k and 2k+1 steps) and requires the accumulated result to be
// bit-identical to RunDecentralized on the same configuration — here
// a subsampled fleet, so the ragged participant bookkeeping is under
// the contract too.
func TestRoundEngineMatchesFlat(t *testing.T) {
	cfg := subCfg()
	re, err := NewRoundEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Config().Peers; got != cfg.Peers {
		t.Fatalf("Config().Peers = %d, want %d", got, cfg.Peers)
	}
	if re.BackendName() != "instant" {
		t.Fatalf("BackendName = %q, want instant", re.BackendName())
	}
	step := re.CommitStepMs()
	if step <= 0 {
		t.Fatalf("CommitStepMs = %g, want > 0", step)
	}
	materialized := len(re.e.peers)
	if materialized == 0 || materialized > cfg.Peers {
		t.Fatalf("%d peers materialized for a %d-peer fleet", materialized, cfg.Peers)
	}
	if re.TotalSamples() != materialized*cfg.TrainPerPeer {
		t.Fatalf("TotalSamples = %d, want %d per materialized peer", re.TotalSamples(), cfg.TrainPerPeer)
	}

	if err := re.RegisterAt(step); err != nil {
		t.Fatal(err)
	}
	k := subsampleK(cfg.ClientFraction, cfg.Peers)
	for round := 1; round <= cfg.Rounds; round++ {
		sum, err := re.RunRoundAt(context.Background(), round, float64(2*round)*step, float64(2*round+1)*step)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Round != round {
			t.Fatalf("summary round = %d, want %d", sum.Round, round)
		}
		if sum.MeanIncluded < 1 || sum.MeanIncluded > float64(k) {
			t.Fatalf("round %d MeanIncluded = %g outside [1, %d]", round, sum.MeanIncluded, k)
		}
	}

	ups := re.Updates()
	if len(ups) != materialized {
		t.Fatalf("Updates = %d, want one per materialized peer (%d)", len(ups), materialized)
	}
	got := re.Finish()

	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("hand-driven RoundEngine differs from RunDecentralized:\ngot:  %.400s\nwant: %.400s", gj, wj)
	}
}

// TestRoundEngineLevers covers the orchestrator levers: mid-run policy
// swaps (nil resets to wait-all) and AdoptAll's length check and
// broadcast adoption.
func TestRoundEngineLevers(t *testing.T) {
	cfg := subCfg()
	cfg.Rounds = 2
	re, err := NewRoundEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := re.CommitStepMs()
	if err := re.RegisterAt(step); err != nil {
		t.Fatal(err)
	}
	re.SetPolicy(core.Policy{K: 1})
	sum, err := re.RunRoundAt(context.Background(), 1, 2*step, 3*step)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanIncluded > float64(subsampleK(cfg.ClientFraction, cfg.Peers)) {
		t.Fatalf("first-1 round admitted %g models on average", sum.MeanIncluded)
	}

	if err := re.AdoptAll([]float32{1, 2, 3}); err == nil {
		t.Fatal("AdoptAll accepted a wrong-length weight vector")
	}
	global := make([]float32, len(re.Updates()[0].Weights))
	if err := re.AdoptAll(global); err != nil {
		t.Fatal(err)
	}
	for i, up := range re.Updates() {
		if &up.Weights[0] != &global[0] {
			t.Fatalf("peer %d did not adopt the broadcast vector", i)
		}
	}

	re.SetPolicy(core.Policy{}) // reset lever: the zero policy waits for all
	if _, err := re.RunRoundAt(context.Background(), 2, 4*step, 5*step); err != nil {
		t.Fatal(err)
	}
	res := re.Finish()
	total := 0
	for _, rounds := range res.Rounds {
		total += len(rounds)
	}
	if wantTotal := 2 * subsampleK(cfg.ClientFraction, cfg.Peers); total != wantTotal {
		t.Fatalf("participant-rounds = %d, want %d", total, wantTotal)
	}
}
