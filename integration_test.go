package waitornot_test

import (
	"testing"

	"waitornot"
	"waitornot/internal/bfl"
	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/keys"
	"waitornot/internal/nn"
	"waitornot/internal/testutil"
)

// TestDecentralizedChainPersistsAndReplays runs a real experiment,
// serializes its chain, and replays it on a fresh chain instance with
// full validation — the audit path cmd/chaininspect implements.
func TestDecentralizedChainPersistsAndReplays(t *testing.T) {
	res, err := bfl.RunDecentralizedWithChain(bfl.Config{
		Model:         nn.ModelSimpleNN,
		Rounds:        2,
		Seed:          21,
		TrainPerPeer:  90,
		SelectionSize: 40,
		TestPerPeer:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := res.CanonicalChain
	// 1 genesis + 1 registration + 2 rounds x (submit block + decision block).
	if len(blocks) != 6 {
		t.Fatalf("canonical chain has %d blocks", len(blocks))
	}
	// Every transaction carries a valid signature (non-repudiation).
	for _, b := range blocks {
		for _, tx := range b.Txs {
			if err := tx.VerifySignature(); err != nil {
				t.Fatalf("on-chain tx with bad signature: %v", err)
			}
		}
	}
	// Submissions are recoverable and verifiable from calldata alone.
	cfg := chain.DefaultConfig()
	cfg.GenesisDifficulty = 64
	cfg.MinDifficulty = 16
	alloc := map[keys.Address]uint64{}
	for _, b := range blocks {
		for _, tx := range b.Txs {
			alloc[tx.From] = 1 << 62
		}
	}
	replay := chain.New(cfg, alloc, contract.NewVM(cfg.Gas))
	for _, b := range blocks[1:] {
		if _, err := replay.AddBlock(b); err != nil {
			t.Fatalf("replay rejected block %d: %v", b.Header.Number, err)
		}
	}
	st := replay.StateCopy()
	subs := contract.SubmissionsAt(st, 1)
	if len(subs) != 3 {
		t.Fatalf("replayed chain has %d round-1 submissions", len(subs))
	}
	decs := contract.DecisionsAt(st, 2)
	if len(decs) != 3 {
		t.Fatalf("replayed chain has %d round-2 decisions", len(decs))
	}
}

// TestVanillaAndDecentralizedSameBand checks the paper's comparison at
// small scale: the two settings produce accuracies in the same broad
// band (not a precise number — a structural sanity check).
func TestVanillaAndDecentralizedSameBand(t *testing.T) {
	opts := waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        3,
		Rounds:         3,
		Seed:           17,
		TrainPerClient: 300,
		SelectionSize:  100,
		TestPerClient:  200,
	}
	v := testutil.Run(t, opts, waitornot.WithKind(waitornot.KindVanilla)).Vanilla
	d := testutil.Run(t, opts).Decentralized
	last := opts.Rounds - 1
	for ci := range v.ClientNames {
		vAcc := v.NotConsider[ci][last]
		dAcc := d.Rounds[ci][last].ChosenAccuracy
		if diff := vAcc - dAcc; diff > 0.15 || diff < -0.15 {
			t.Fatalf("client %d: vanilla %.4f vs decentralized %.4f differ by more than 0.15",
				ci, vAcc, dAcc)
		}
	}
}
