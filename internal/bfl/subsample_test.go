package bfl

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"waitornot/internal/contract"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
	"waitornot/internal/xrand"
)

// subCfg is a small subsampled fleet configuration shared by the tests:
// instant backend (no mining), tiny shards, sequential by default.
func subCfg() Config {
	return Config{
		Peers: 100, Rounds: 3, Seed: 7,
		TrainPerPeer: 60, SelectionSize: 40, TestPerPeer: 40,
		Hyper:          fl.DefaultHyper(nn.ModelSimpleNN),
		ClientFraction: 0.05,
		Backend:        "instant",
		Parallelism:    1,
	}
}

func TestSubsampleK(t *testing.T) {
	cases := []struct {
		f    float64
		n, k int
	}{
		{0.0032, 10000, 32}, // the cross-device acceptance shape
		{0.5, 3, 2},         // round, not truncate
		{0.001, 100, 1},     // clamps up to 1
		{1, 5, 5},           // full participation
		{0.99, 2, 2},        // rounds to n
	}
	for _, c := range cases {
		if got := subsampleK(c.f, c.n); got != c.k {
			t.Errorf("subsampleK(%g, %d) = %d, want %d", c.f, c.n, got, c.k)
		}
	}
}

// TestDrawParticipantsGolden pins the participant schedule: it is part
// of the reproducibility contract (drawn from the root seed's
// "client-subsample" substream at setup, never from run order).
func TestDrawParticipantsGolden(t *testing.T) {
	got := drawParticipants(xrand.New(42), 1000, 4, 3)
	want := [][]int{nil, {292, 525, 750, 795}, {23, 337, 642, 860}, {179, 379, 494, 536}}
	if len(got) != len(want) {
		t.Fatalf("got %d round entries, want %d", len(got), len(want))
	}
	for r := range want {
		gj, _ := json.Marshal(got[r])
		wj, _ := json.Marshal(want[r])
		if string(gj) != string(wj) {
			t.Errorf("round %d participants = %s, want %s", r, gj, wj)
		}
	}
	// Every round's draw is k distinct ascending indices.
	for r := 1; r < len(got); r++ {
		for i := 1; i < len(got[r]); i++ {
			if got[r][i] <= got[r][i-1] {
				t.Fatalf("round %d participants not strictly ascending: %v", r, got[r])
			}
		}
	}
}

func TestClientFractionValidation(t *testing.T) {
	for _, f := range []float64{-0.5, -1, 1.5} {
		cfg := subCfg()
		cfg.ClientFraction = f
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "client fraction") {
			t.Errorf("ClientFraction=%g: want client-fraction error, got %v", f, err)
		}
	}
	cfg := subCfg()
	cfg.DirichletAlpha = 0.5
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "DirichletAlpha") {
		t.Errorf("ClientFraction+DirichletAlpha: want incompatibility error, got %v", err)
	}
}

// TestSubsampledReproducible is the determinism contract under
// subsampling: the full report is bit-identical at Parallelism 1 and a
// multi-worker pool, and across repeated runs.
func TestSubsampledReproducible(t *testing.T) {
	seq, err := Run(context.Background(), subCfg())
	if err != nil {
		t.Fatal(err)
	}
	par := subCfg()
	par.Parallelism = 4
	pres, err := Run(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(seq)
	pj, _ := json.Marshal(pres)
	if string(sj) != string(pj) {
		t.Fatalf("subsampled run differs between Parallelism 1 and 4:\nseq: %.400s\npar: %.400s", sj, pj)
	}
}

// TestSharedDecodedUpdatesReadOnly covers the decide pool's shared
// read path on the replicated substrate: in a 2-round poa K-of-N run,
// each committed submission is decoded once per round and every
// sampled peer aggregates from that one vector. At every round's end
// each shared vector must still equal a fresh decode of its committed
// blob (nobody scribbled), the set must be released after the round,
// and the run must be bit-identical at Parallelism 1 and 8.
func TestSharedDecodedUpdatesReadOnly(t *testing.T) {
	run := func(parallelism int) []byte {
		cfg := subCfg()
		cfg.Peers, cfg.ClientFraction, cfg.Rounds = 12, 0.5, 2
		cfg.Backend, cfg.CommitLatency, cfg.Parallelism = "poa", true, parallelism
		var eng *engine
		checked := 0
		cfg.Events = func(ev event.Event) {
			if _, ok := ev.(event.RoundEnd); !ok {
				return
			}
			if len(eng.roundWeights) != 6 {
				t.Errorf("round shared %d decoded vectors, want one per sampled peer (6)", len(eng.roundWeights))
			}
			for tx, shared := range eng.roundWeights {
				call, _ := contract.CallOf(tx)
				blob, ok := call.SubmitBlob()
				if !ok {
					t.Fatal("shared vector keyed by a non-submit tx")
				}
				fresh, err := nn.DecodeWeights(blob)
				if err != nil || !reflect.DeepEqual(fresh, shared) {
					t.Errorf("shared decoded vector of %s no longer matches its committed blob", tx.Hash().Short())
				}
				checked++
			}
		}
		r, err := NewRoundEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng = r.e
		step := r.CommitStepMs()
		if err := r.RegisterAt(step); err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= cfg.Rounds; round++ {
			if _, err := r.RunRoundAt(context.Background(), round, float64(2*round)*step, float64(2*round+1)*step); err != nil {
				t.Fatal(err)
			}
			if eng.roundWeights != nil {
				t.Fatal("the round's decoded set outlived the round")
			}
		}
		if checked != 12 {
			t.Fatalf("checked %d shared vectors, want 2 rounds x 6", checked)
		}
		out, _ := json.Marshal(r.Finish())
		return out
	}
	if seq, par := run(1), run(8); string(seq) != string(par) {
		t.Fatalf("poa K-of-N run differs between Parallelism 1 and 8:\nseq: %.400s\npar: %.400s", seq, par)
	}
}

// TestSubsampledSchedule checks the cross-device round shape: only
// sampled peers train each round, result rows are ragged accordingly,
// and every materialized peer participated at least once.
func TestSubsampledSchedule(t *testing.T) {
	cfg := subCfg()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := subsampleK(cfg.ClientFraction, cfg.Peers) // 5
	if k != 5 {
		t.Fatalf("expected K=5, got %d", k)
	}
	perRound := make(map[int]int)
	total := 0
	for i, rounds := range res.Rounds {
		if len(rounds) == 0 {
			t.Errorf("peer %s materialized but never participated", res.PeerNames[i])
		}
		for _, rs := range rounds {
			perRound[rs.Round]++
			total++
			if rs.Included < 1 || rs.Included > k {
				t.Errorf("peer %s round %d included %d of at most %d", res.PeerNames[i], rs.Round, rs.Included, k)
			}
		}
	}
	for r := 1; r <= cfg.Rounds; r++ {
		if perRound[r] != k {
			t.Errorf("round %d has %d participants, want %d", r, perRound[r], k)
		}
	}
	if total != k*cfg.Rounds {
		t.Errorf("total participant-rounds %d, want %d", total, k*cfg.Rounds)
	}
	if len(res.PeerNames) > k*cfg.Rounds {
		t.Errorf("materialized %d peers for at most %d participant slots", len(res.PeerNames), k*cfg.Rounds)
	}
	// The combo grid is a cross-silo artifact and must be absent.
	for i := range res.ComboLabels {
		if len(res.ComboLabels[i]) != 0 || len(res.ComboAccuracy[i]) != 0 {
			t.Fatalf("peer %d has combo tables in a subsampled run", i)
		}
	}
	// On-chain footprint covers exactly the participant-rounds: one
	// submission and one decision per participant per round.
	if res.Chain.Submissions != total || res.Chain.Decisions != total {
		t.Errorf("chain has %d submissions / %d decisions, want %d each",
			res.Chain.Submissions, res.Chain.Decisions, total)
	}
}

// TestSubsampledLargeFleet is the scaling acceptance: a fleet of 10,000
// registered peers with K=32 sampled per round must set up and run in
// seconds, because only the active cohort is ever materialized.
func TestSubsampledLargeFleet(t *testing.T) {
	cfg := Config{
		Peers: 10000, Rounds: 2, Seed: 3,
		TrainPerPeer: 32, SelectionSize: 20, TestPerPeer: 20,
		Hyper:          fl.DefaultHyper(nn.ModelSimpleNN),
		ClientFraction: 0.0032, // K = 32
		Backend:        "instant",
	}
	start := time.Now()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(res.PeerNames) > 64 {
		t.Errorf("materialized %d peers; the union of 2 rounds of K=32 is at most 64", len(res.PeerNames))
	}
	perRound := make(map[int]int)
	for _, rounds := range res.Rounds {
		for _, rs := range rounds {
			perRound[rs.Round]++
		}
	}
	for r := 1; r <= cfg.Rounds; r++ {
		if perRound[r] != 32 {
			t.Errorf("round %d has %d participants, want 32", r, perRound[r])
		}
	}
	if elapsed > 60*time.Second {
		t.Errorf("10,000-peer subsampled run took %v; cross-device setup must not scale with fleet size", elapsed)
	}
	t.Logf("10,000-peer fleet, K=32, %d rounds: %v (%d peers materialized)", cfg.Rounds, elapsed, len(res.PeerNames))
}

// TestClassicUnaffected pins that ClientFraction=0 takes the classic
// path: rectangular rounds, combo labels present, no participants list.
func TestClassicUnaffected(t *testing.T) {
	cfg := subCfg()
	cfg.ClientFraction = 0
	cfg.Peers = 3
	cfg.EvalAllCombos = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rounds := range res.Rounds {
		if len(rounds) != cfg.Rounds {
			t.Errorf("classic peer %d has %d rounds, want %d", i, len(rounds), cfg.Rounds)
		}
	}
	if len(res.ComboLabels[0]) == 0 {
		t.Error("classic run lost its combo labels")
	}
}

// TestFullFractionFleetMatchesClassicIdentities: a ClientFraction=1
// fleet materializes the same devices as the classic fleet — names,
// keys, selection sets, test sets, initial weights — and differs in
// exactly one thing, the documented one: each peer draws its own
// training shard instead of taking a slice of one partitioned pool.
// That difference is why "ClientFraction=1 ≡ classic" is not a property
// of this system.
func TestFullFractionFleetMatchesClassicIdentities(t *testing.T) {
	cfg := subCfg()
	cfg.Peers = 4
	cfg.ClientFraction = 0
	classic, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ClientFraction = 1
	full, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.peers) != len(classic.peers) {
		t.Fatalf("full-fraction fleet has %d peers, classic %d", len(full.peers), len(classic.peers))
	}
	if !reflect.DeepEqual(full.w.initial, classic.w.initial) {
		t.Fatal("initial weights differ")
	}
	for r := 1; r <= cfg.Rounds; r++ {
		if !reflect.DeepEqual(full.roundParticipants(r), classic.roundParticipants(r)) {
			t.Fatalf("round %d: full-fraction participants %v, classic %v", r, full.roundParticipants(r), classic.roundParticipants(r))
		}
	}
	for i, c := range classic.peers {
		f := full.peers[i]
		if f.name != c.name || f.key.Address() != c.key.Address() {
			t.Fatalf("peer %d: identity (%s, %s) vs classic (%s, %s)", i, f.name, f.key.Address().Short(), c.name, c.key.Address().Short())
		}
		if !reflect.DeepEqual(f.client.Selection, c.client.Selection) {
			t.Fatalf("peer %s: selection sets differ", c.name)
		}
		if !reflect.DeepEqual(f.client.Test, c.client.Test) {
			t.Fatalf("peer %s: test sets differ", c.name)
		}
		if f.samples != c.samples || f.simTrainMs != c.simTrainMs {
			t.Fatalf("peer %s: shard size / modeled duration (%d, %g) vs classic (%d, %g)", c.name, f.samples, f.simTrainMs, c.samples, c.simTrainMs)
		}
		if reflect.DeepEqual(f.client.Train, c.client.Train) {
			t.Fatalf("peer %s: training shards are identical — the regimes' one difference is gone; update ROADMAP item 5 and Config.ClientFraction's doc", c.name)
		}
	}
}
