package bfl

import (
	"bytes"
	"testing"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/nn"
)

// TestSubmitTxEncodesCallDataDirectly: the submit stage encodes the
// weights straight into the calldata, and the bytes are exactly the
// two-step encoding's — blob first, then the call around it — for an
// empty model, one weight and a SimpleNN-size vector, in one buffer
// with no spare capacity, signed so that it passes ValidateBasic.
func TestSubmitTxEncodesCallDataDirectly(t *testing.T) {
	e := &engine{cfg: Config{Model: nn.ModelSimpleNN}, gas: chain.DefaultGasSchedule(), w: &World{}}
	p := &peerState{key: keys.GenerateDeterministic(5)}
	for _, n := range []int{0, 1, 61_670} {
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(i%7) - 3 // zeros among them
		}
		tx, size, err := e.submitTx(p, 3, &fl.Update{Weights: w, NumSamples: 11})
		if err != nil {
			t.Fatal(err)
		}
		want := contract.SubmitCallData(3, uint64(nn.ModelSimpleNN), 11, nn.AppendWeights(nil, w))
		if !bytes.Equal(tx.Payload, want) {
			t.Fatalf("%d weights: direct calldata differs from SubmitCallData(AppendWeights)", n)
		}
		if size != nn.EncodedSize(n) || cap(tx.Payload) != len(tx.Payload) {
			t.Fatalf("%d weights: size %d, payload len %d cap %d", n, size, len(tx.Payload), cap(tx.Payload))
		}
		if err := tx.ValidateBasic(e.gas); err != nil {
			t.Fatal(err)
		}
	}
	if p.nonce != 3 {
		t.Fatalf("nonce %d after three submissions", p.nonce)
	}
}

// TestSubmitPoolBlockHashesIndependentOfParallelism: with the submit
// stage's encode and sign on the pool, a subsampled poa run commits the
// same chain, block by block, sequentially and on eight workers.
func TestSubmitPoolBlockHashesIndependentOfParallelism(t *testing.T) {
	run := func(parallelism int) []*chain.Block {
		cfg := subCfg()
		cfg.Peers, cfg.Rounds, cfg.ClientFraction = 8, 2, 0.5
		cfg.Backend, cfg.Parallelism = "poa", parallelism
		rwc, err := RunDecentralizedWithChain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rwc.CanonicalChain
	}
	seq, pooled := run(1), run(8)
	if len(seq) != len(pooled) || len(seq) < 4 {
		t.Fatalf("chain lengths %d and %d", len(seq), len(pooled))
	}
	for i := range seq {
		if seq[i].Hash() != pooled[i].Hash() {
			t.Fatalf("block %d: %s sequential, %s on eight workers", i, seq[i].Hash().Short(), pooled[i].Hash().Short())
		}
	}
}
