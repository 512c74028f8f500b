package waitornot_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"waitornot"
	"waitornot/internal/bfl"
	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/nn"
	"waitornot/internal/testutil"
)

// TestDecentralizedChainPersistsAndReplays runs a real experiment,
// serializes its chain, and replays the decoded bytes under the block
// rule with full validation — bfl.AuditChain, the audit path
// cmd/chaininspect runs.
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
	var file bytes.Buffer
	if err := chain.WriteChain(&file, res.CanonicalChain); err != nil {
		t.Fatal(err)
	}
	blocks, err := chain.ReadChain(&file)
	if err != nil {
		t.Fatal(err)
	}
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
	st, err := bfl.AuditChain(blocks)
	if err != nil {
		t.Fatalf("replay rejected the chain: %v", err)
	}
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

// TestVanillaIsWaitAllAtRoundOne is "wait-for-all ≡ vanilla FedAvg" in
// the form that holds: the vanilla baseline and a decentralized run of
// the same Options read one world, so at round 1 — before any peer has
// adopted a combination of its own — every client's "not consider"
// accuracy is its decentralized table's full-set row, bit for bit, on
// every backend. The "consider" arm trains the same streams, so its
// round-1 choice scores exactly that combination's row too (when it is
// the full set, the two arms agree).
func TestVanillaIsWaitAllAtRoundOne(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		opts := waitornot.Options{
			Model:          waitornot.SimpleNN,
			Clients:        3,
			Rounds:         2,
			Seed:           seed,
			TrainPerClient: 300,
			SelectionSize:  60,
			TestPerClient:  400,
			LearningRate:   0.02,
		}
		v := testutil.Run(t, opts, waitornot.WithKind(waitornot.KindVanilla)).Vanilla
		for _, backend := range []string{"pow", "poa", "pbft", "instant"} {
			opts.Backend = backend
			d := testutil.Run(t, opts).Decentralized
			for ci := range v.ClientNames {
				row := d.ComboAccuracy[ci][0]
				if got, want := v.NotConsider[ci][0], row[len(row)-1]; got != want {
					t.Errorf("seed %d %s client %d: vanilla not-consider %v, decentralized full set %v",
						seed, backend, ci, got, want)
				}
				for c, label := range d.ComboLabels[ci] {
					if label == v.ConsiderCombos[0] && v.Consider[ci][0] != row[c] {
						t.Errorf("seed %d %s client %d: vanilla consider adopted %s at %v, decentralized row %v",
							seed, backend, ci, label, v.Consider[ci][0], row[c])
					}
				}
			}
		}
	}
}

// TestPowChainShapeGolden pins the default substrate's blocks by shape:
// a 2-round pow run's chain as header fields and per-transaction
// sender, nonce, destination, gas limit and payload digest — the part
// of the chain that is a function of the seed whatever nonce the
// signatures use. The rest (signatures, and so transaction and block
// hashes and PoW nonces) is covered by
// TestChainBytesAreAFunctionOfTheSeed.
func TestPowChainShapeGolden(t *testing.T) {
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
	var out bytes.Buffer
	for _, b := range res.CanonicalChain {
		h := b.Header
		fmt.Fprintf(&out, "block %d time %d miner %s difficulty %d gaslimit %d gasused %d txs %d\n",
			h.Number, h.Time, h.Miner, h.Difficulty, h.GasLimit, h.GasUsed, len(b.Txs))
		for _, tx := range b.Txs {
			fmt.Fprintf(&out, "  tx from %s nonce %d to %s gaslimit %d payload %x\n",
				tx.From, tx.Nonce, tx.To, tx.GasLimit, sha256.Sum256(tx.Payload))
		}
	}
	testutil.GoldenFile(t, "testdata/pow_chain_shape.golden", out.Bytes())
}

// TestChainBytesAreAFunctionOfTheSeed: "deterministic given the seed"
// holds for the chain itself, not only for the reports — signatures use
// RFC 6979 nonces, so two runs at one seed serialize to the same bytes
// (a chain file can be a golden) and a different seed does not.
func TestChainBytesAreAFunctionOfTheSeed(t *testing.T) {
	stream := func(seed uint64) []byte {
		res, err := bfl.RunDecentralizedWithChain(bfl.Config{
			Model:         nn.ModelSimpleNN,
			Rounds:        1,
			Seed:          seed,
			TrainPerPeer:  64,
			SelectionSize: 40,
			TestPerPeer:   50,
		})
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := chain.WriteChain(&file, res.CanonicalChain); err != nil {
			t.Fatal(err)
		}
		return file.Bytes()
	}
	first := stream(21)
	if again := stream(21); !bytes.Equal(first, again) {
		t.Fatalf("two runs at seed 21 wrote different chains (%d and %d bytes)", len(first), len(again))
	}
	if bytes.Equal(first, stream(22)) {
		t.Fatal("seeds 21 and 22 wrote the same chain")
	}
}
