package bfl

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"waitornot/internal/core"
	"waitornot/internal/fl"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
)

// tinyConfig is a fast 3-peer, 2-round experiment.
func tinyConfig() Config {
	return Config{
		Model:         nn.ModelSimpleNN,
		Peers:         3,
		Rounds:        2,
		Seed:          11,
		TrainPerPeer:  90,
		SelectionSize: 40,
		TestPerPeer:   50,
		EvalAllCombos: true,
	}
}

func TestRunDecentralizedShape(t *testing.T) {
	res, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PeerNames, []string{"A", "B", "C"}) {
		t.Fatalf("peer names = %v", res.PeerNames)
	}
	// Table II row labels for client A.
	wantA := []string{"A", "A,B", "A,C", "B,C", "A,B,C"}
	if !reflect.DeepEqual(res.ComboLabels[0], wantA) {
		t.Fatalf("combo labels A = %v", res.ComboLabels[0])
	}
	for p := 0; p < 3; p++ {
		if len(res.ComboAccuracy[p]) != 2 {
			t.Fatalf("peer %d has %d rounds of combo data", p, len(res.ComboAccuracy[p]))
		}
		for r, row := range res.ComboAccuracy[p] {
			if len(row) != 5 {
				t.Fatalf("peer %d round %d has %d combos", p, r, len(row))
			}
			for _, acc := range row {
				if acc < 0 || acc > 1 {
					t.Fatalf("accuracy %v out of range", acc)
				}
			}
		}
		if len(res.Rounds[p]) != 2 {
			t.Fatalf("peer %d has %d round stats", p, len(res.Rounds[p]))
		}
		for _, rs := range res.Rounds[p] {
			if rs.Included != 3 {
				t.Fatalf("wait-all must include all 3, got %d", rs.Included)
			}
			if rs.ChosenCombo == "" || rs.WaitMs <= 0 {
				t.Fatalf("round stats = %+v", rs)
			}
		}
	}
	// Chain footprint: 1 registration block + (submission + decision)
	// per round, all on top of genesis.
	if res.Chain.Blocks != 1+1+2*2 {
		t.Fatalf("blocks = %d", res.Chain.Blocks)
	}
	if res.Chain.Submissions != 6 || res.Chain.Decisions != 6 {
		t.Fatalf("submissions/decisions = %d/%d", res.Chain.Submissions, res.Chain.Decisions)
	}
	if res.Chain.GasUsed == 0 || res.Chain.Bytes == 0 {
		t.Fatal("gas/bytes not accounted")
	}
}

func TestRunDecentralizedDeterministic(t *testing.T) {
	a, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ComboAccuracy, b.ComboAccuracy) {
		t.Fatal("combo accuracy not deterministic")
	}
	for p := range a.Rounds {
		for r := range a.Rounds[p] {
			if a.Rounds[p][r].ChosenCombo != b.Rounds[p][r].ChosenCombo {
				t.Fatal("chosen combos not deterministic")
			}
		}
	}
}

func TestRunDecentralizedValidates(t *testing.T) {
	cfg := tinyConfig()
	cfg.Peers = 1
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("1 peer accepted")
	}
	cfg = tinyConfig()
	cfg.StragglerFactor = []float64{1}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("straggler length mismatch accepted")
	}
	cfg = tinyConfig()
	cfg.PoisonPeer = 99
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("poison peer out of range accepted")
	}
}

func TestRunDecentralizedFirstKWaitsLess(t *testing.T) {
	cfg := tinyConfig()
	cfg.EvalAllCombos = false
	cfg.StragglerFactor = []float64{1, 1, 8} // C is a straggler
	waitAll, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = core.FirstK{K: 2}
	firstK, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Peer A under first-2 must aggregate fewer updates and wait less
	// than under wait-all.
	for r := range firstK.Rounds[0] {
		fk, wa := firstK.Rounds[0][r], waitAll.Rounds[0][r]
		if fk.Included >= wa.Included {
			t.Fatalf("round %d: first-2 included %d, wait-all %d", r+1, fk.Included, wa.Included)
		}
		if fk.WaitMs >= wa.WaitMs {
			t.Fatalf("round %d: first-2 waited %.1fms, wait-all %.1fms", r+1, fk.WaitMs, wa.WaitMs)
		}
	}
}

func TestRunDecentralizedStragglerDominatesWaitAll(t *testing.T) {
	run := func(factors []float64) float64 {
		cfg := tinyConfig()
		cfg.EvalAllCombos = false
		cfg.StragglerFactor = factors
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds[0][0].WaitMs
	}
	// Under wait-all, everyone waits for C; slowing C must lengthen the
	// round for peer A.
	balanced := run(nil)
	straggling := run([]float64{1, 1, 50})
	if straggling <= balanced {
		t.Fatalf("straggler wait %.2fms not above balanced %.2fms", straggling, balanced)
	}
}

func TestRunDecentralizedPoisonFiltered(t *testing.T) {
	cfg := Config{
		Model:         nn.ModelSimpleNN,
		Peers:         3,
		Rounds:        2,
		Seed:          13,
		TrainPerPeer:  300,
		SelectionSize: 100,
		TestPerPeer:   100,
		PoisonPeer:    2,
		PoisonFrac:    1.0,
		Filter:        core.Filter{MaxBelowBest: 0.05},
		EvalAllCombos: false,
		// The default LR is calibrated for 3000-sample shards over 10
		// rounds; at this test's tiny scale it leaves every model near
		// random and the filter has nothing to separate. Train hot.
		Hyper: fl.Hyper{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-3, BatchSize: 32, LocalEpochs: 5},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// By the last round the fully flipped peer C should be rejected by
	// the healthy peers' filters.
	rejectedByA := res.Rounds[0][len(res.Rounds[0])-1].Rejected
	found := false
	for _, r := range rejectedByA {
		if r == "C" {
			found = true
		}
	}
	if !found {
		t.Fatalf("peer A did not reject poisoned C; rejected = %v", rejectedByA)
	}
	// And C itself keeps its own model (self is never filtered).
	if res.Rounds[2][0].ChosenCombo == "" {
		t.Fatal("poisoned peer must still aggregate something")
	}
}

func TestApplyPolicySelfAlwaysIncluded(t *testing.T) {
	mk := func(name string) *fl.Update {
		return &fl.Update{Client: name, Round: 1, Weights: []float32{1}, NumSamples: 1}
	}
	ups := []*fl.Update{mk("A"), mk("B"), mk("C")}
	arrivals := map[string]float64{"A": 100, "B": 10, "C": 20}
	// A's own training finishes last; even FirstK{1} must wait for A.
	included, waitMs := applyPolicy(core.FirstK{K: 1}, "A", 100, ups, arrivals)
	names := make(map[string]bool)
	for _, u := range included {
		names[u.Client] = true
	}
	if !names["A"] {
		t.Fatal("self update missing")
	}
	if waitMs < 100 {
		t.Fatalf("fired at %.0fms before own training finished", waitMs)
	}
}

func TestApplyPolicyFirstKOrder(t *testing.T) {
	mk := func(name string) *fl.Update {
		return &fl.Update{Client: name, Round: 1, Weights: []float32{1}, NumSamples: 1}
	}
	ups := []*fl.Update{mk("A"), mk("B"), mk("C")}
	arrivals := map[string]float64{"B": 50, "C": 500}
	included, waitMs := applyPolicy(core.FirstK{K: 2}, "A", 10, ups, arrivals)
	if len(included) != 2 {
		t.Fatalf("included %d", len(included))
	}
	if included[0].Client != "A" || included[1].Client != "B" {
		t.Fatalf("order = %s,%s", included[0].Client, included[1].Client)
	}
	if waitMs != 50 {
		t.Fatalf("waitMs = %v", waitMs)
	}
}

// registerAllRejected registers the rigged backend of
// TestAllSubmissionsRejectedFallsBackToOwnModel once per process: the
// registry is process-global, so a second pass of the test
// (go test -count=2) would find the name already taken.
var registerAllRejected sync.Once

// TestAllSubmissionsRejectedFallsBackToOwnModel forces a round in which
// pbft model verification rejects every submission: the rigged scorer
// rates round 1's three candidates and their committed FedAvg 0.9, then
// everything after 0.1 — more than the verification margin below the
// committed reference. The run must complete with each peer aggregating
// its own update alone, and the K rejections counted.
func TestAllSubmissionsRejectedFallsBackToOwnModel(t *testing.T) {
	const name = "pbft-all-rejected-test"
	registerAllRejected.Do(func() {
		pbft, _ := ledger.Lookup("pbft")
		ledger.MustRegister(name, "pbft with a rigged verifier (test only)", func(cfg ledger.Config) (ledger.Backend, error) {
			calls := 0
			cfg.Verify = func([]float32) float64 {
				calls++
				if calls <= cfg.Peers+1 {
					return 0.9
				}
				return 0.1
			}
			return pbft(cfg)
		})
	})
	cfg := tinyConfig()
	cfg.Backend = name
	cfg.EvalAllCombos = false
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("all-rejected round aborted the run: %v", err)
	}
	if res.Chain.VerifyRejected != cfg.Peers {
		t.Fatalf("VerifyRejected = %d, want %d (every round-2 submission)", res.Chain.VerifyRejected, cfg.Peers)
	}
	for p, rounds := range res.Rounds {
		if rounds[0].Included != cfg.Peers || rounds[1].Included != 1 {
			t.Fatalf("peer %d included %d then %d models, want %d then 1 (own model only)",
				p, rounds[0].Included, rounds[1].Included, cfg.Peers)
		}
	}
}
