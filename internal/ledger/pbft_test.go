// pbft backend tests: the analytic commit latency on the default and
// configured committees, degenerate committees rejected at
// construction, and the model-verification gate — rejected submissions
// still commit (nonces advance) but never reach the contract, and the
// committed model's score carries into the next round's threshold.
package ledger_test

import (
	"math"
	"strings"
	"testing"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
)

// submitTx builds a model-submission transaction for the aggregation
// contract carrying the encoded weight vector.
func submitTx(t *testing.T, cfg ledger.Config, k *keys.Key, nonce, round uint64, w []float32) *chain.Transaction {
	t.Helper()
	return rawSubmitTx(t, cfg, k, nonce, round, nn.AppendWeights(nil, w))
}

// rawSubmitTx is submitTx with the weight blob supplied verbatim, for
// corrupt-payload cases.
func rawSubmitTx(t *testing.T, cfg ledger.Config, k *keys.Key, nonce, round uint64, blob []byte) *chain.Transaction {
	t.Helper()
	tx, err := chain.NewTx(k, nonce, contract.AggregationAddress, 0,
		contract.SubmitCallData(round, 1, 10, blob), cfg.Chain.Gas, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// submittersAt is the set of senders the contract recorded for a round
// in the given peer's replicated state.
func submittersAt(be ledger.Backend, peer int, round uint64) map[keys.Address]bool {
	out := map[keys.Address]bool{}
	for _, s := range contract.SubmissionsAt(be.StateView(peer), round) {
		out[s.Sender] = true
	}
	return out
}

// TestPBFTLatencyDefaults pins the backend's analytic commit cadence:
// the default 4-validator committee over the default Uniform(25, ±50%)
// hop has E[OS₂(3)] = 25 ms exactly, so three phases cost 75 ms — the
// ladder slot between poa (200) and instant (0). Bigger committees
// commit strictly slower; committees below n = 4 never construct.
func TestPBFTLatencyDefaults(t *testing.T) {
	cfg, _ := testCfg(2)
	be, err := ledger.New("pbft", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "pbft" {
		t.Fatalf("backend name %q", be.Name())
	}
	if got := be.CommitLatencyMs(); got != 75 {
		t.Fatalf("default commit latency = %g ms, want exactly 75 (3 phases x 25 ms quorum hop)", got)
	}
	cfg7, _ := testCfg(2)
	cfg7.Validators = 7
	be7, err := ledger.New("pbft", cfg7)
	if err != nil {
		t.Fatal(err)
	}
	if be7.CommitLatencyMs() <= be.CommitLatencyMs() {
		t.Fatalf("7 validators commit in %g ms, not slower than 4 (%g ms)",
			be7.CommitLatencyMs(), be.CommitLatencyMs())
	}

	cfg3, _ := testCfg(2)
	cfg3.Validators = 3
	if _, err := ledger.New("pbft", cfg3); err == nil {
		t.Fatal("committee of 3 accepted; PBFT needs n = 3f+1 with f >= 1")
	} else if !strings.Contains(err.Error(), "at least 4 validators") {
		t.Fatalf("committee-of-3 error should state the minimum: %v", err)
	}
}

// TestPBFTVerificationGate drives the full verification lifecycle with
// a stub evaluator that scores a weight vector by its first component:
// a below-margin outlier is rejected (on the Commit and absent from
// every peer's contract state) yet its transaction commits, so the
// sender's next submission — scored against the committed batch's
// FedAvg — goes through at the advanced nonce; and the carried
// reference score rejects a later sole-member batch that regresses.
func TestPBFTVerificationGate(t *testing.T) {
	cfg, ks := testCfg(3)
	cfg.Verify = func(w []float32) float64 { return float64(w[0]) }
	be, err := ledger.New("pbft", cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Round 0: scores 0.9, 0.8, 0.5 under margin 0.15 — the third is an
	// outlier against the batch best.
	outlier := submitTx(t, cfg, ks[2], 0, 0, []float32{0.5, 1})
	for _, tx := range []*chain.Transaction{
		submitTx(t, cfg, ks[0], 0, 0, []float32{0.9, 1}),
		submitTx(t, cfg, ks[1], 0, 0, []float32{0.8, 1}),
		outlier,
	} {
		if err := be.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	c, err := be.Commit(0, cfg.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Txs != 3 {
		t.Fatalf("commit carried %d txs, want all 3 (rejection must not drop the tx)", c.Txs)
	}
	if len(c.Rejected) != 1 || c.Rejected[0] != outlier.Hash() {
		t.Fatalf("Rejected = %v, want exactly the outlier %v", c.Rejected, outlier.Hash())
	}
	for peer := 0; peer < cfg.Peers; peer++ {
		subs := submittersAt(be, peer, 0)
		if len(subs) != 2 || !subs[ks[0].Address()] || !subs[ks[1].Address()] {
			t.Fatalf("peer %d round-0 submitters = %v, want exactly the two accepted", peer, subs)
		}
		if subs[ks[2].Address()] {
			t.Fatalf("peer %d state carries the rejected submission", peer)
		}
	}

	// Round 1: the rejected sender's nonce advanced with its no-op, so
	// nonce 1 is next; 0.8 clears the committed FedAvg's ~0.85 by the
	// margin.
	if err := be.Submit(submitTx(t, cfg, ks[2], 1, 1, []float32{0.8, 1})); err != nil {
		t.Fatal(err)
	}
	c2, err := be.Commit(1, 2*cfg.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Txs != 1 || len(c2.Rejected) != 0 {
		t.Fatalf("recovered sender: txs=%d rejected=%v, want 1 committed 0 rejected", c2.Txs, c2.Rejected)
	}
	if !submittersAt(be, 0, 1)[ks[2].Address()] {
		t.Fatal("recovered submission missing from contract state")
	}

	// Round 2: a sole submission far below the committed model is still
	// rejected — the reference score carries across rounds.
	if err := be.Submit(submitTx(t, cfg, ks[0], 1, 2, []float32{0.5, 1})); err != nil {
		t.Fatal(err)
	}
	c3, err := be.Commit(2, 3*cfg.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	if len(c3.Rejected) != 1 {
		t.Fatalf("regressing sole submission not held to the committed score: rejected=%v", c3.Rejected)
	}
	if len(submittersAt(be, 0, 2)) != 0 {
		t.Fatal("rejected regression reached the contract")
	}
}

// TestPBFTRejectsMalformedSubmissions: with no evaluator configured
// (verification off), well-formed submissions pass untouched but a
// corrupt weight blob or a non-finite vector is still rejected — the
// structural checks do not need a validation set.
func TestPBFTRejectsMalformedSubmissions(t *testing.T) {
	cfg, ks := testCfg(3)
	be, err := ledger.New("pbft", cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := submitTx(t, cfg, ks[0], 0, 0, []float32{0.5, 0.5})
	corrupt := rawSubmitTx(t, cfg, ks[1], 0, 0, []byte{1, 2, 3})
	nans := submitTx(t, cfg, ks[2], 0, 0, []float32{float32(math.NaN()), 1})
	for _, tx := range []*chain.Transaction{good, corrupt, nans} {
		if err := be.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	c, err := be.Commit(0, cfg.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Txs != 3 {
		t.Fatalf("commit carried %d txs, want 3", c.Txs)
	}
	rejected := map[chain.Hash]bool{}
	for _, h := range c.Rejected {
		rejected[h] = true
	}
	if len(rejected) != 2 || !rejected[corrupt.Hash()] || !rejected[nans.Hash()] {
		t.Fatalf("Rejected = %v, want the corrupt blob and the NaN vector", c.Rejected)
	}
	subs := submittersAt(be, 0, 0)
	if len(subs) != 1 || !subs[ks[0].Address()] {
		t.Fatalf("round-0 submitters = %v, want only the well-formed one", subs)
	}
}

// TestPBFTMatchesPoAOnCleanTraffic: on traffic with nothing to reject
// (registrations, no model submissions) pbft is poa with a different
// latency model — same gas, same contract storage, no rejections.
func TestPBFTMatchesPoAOnCleanTraffic(t *testing.T) {
	cfgA, ks := testCfg(3)
	cfgB, _ := testCfg(3)
	pbft, err := ledger.New("pbft", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	poa, err := ledger.New("poa", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		tx := registerTx(t, cfgA, k, 0, string(rune('A'+i)), 1)
		if err := pbft.Submit(tx); err != nil {
			t.Fatal(err)
		}
		if err := poa.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := pbft.Commit(0, cfgA.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := poa.Commit(0, cfgB.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Txs != ca.Txs || cp.GasUsed != ca.GasUsed {
		t.Fatalf("pbft gas/txs %d/%d != poa %d/%d", cp.GasUsed, cp.Txs, ca.GasUsed, ca.Txs)
	}
	if len(cp.Rejected) != 0 {
		t.Fatalf("clean traffic rejected: %v", cp.Rejected)
	}
	for i, k := range ks {
		if name := contract.NameOf(pbft.StateView(2), k.Address()); name != string(rune('A'+i)) {
			t.Fatalf("pbft state missing registration %d (got %q)", i, name)
		}
	}
}
