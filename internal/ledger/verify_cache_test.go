package ledger_test

import (
	"testing"

	"waitornot/internal/contract"
	"waitornot/internal/ledger"
)

// TestTamperedTxRejectedOnEveryReplica proves the verify-once
// signature verdict cannot be laundered through gossip: after an
// honest transaction has been verified — and its verdict recorded on
// the transaction — on every replica of every backend, a copy with a
// tampered payload (same signature, same sender) must still be rejected
// by Submit and must never reach any peer's pending set. The same holds
// at payload level for the decoded-call memo: once a model submission
// has been executed on every replica (payload parsed, weight blob
// digested, both memoized on the transaction), a copy with one weight
// byte flipped is still refused at every hop, and every replica's
// contract keeps the honest digest.
func TestTamperedTxRejectedOnEveryReplica(t *testing.T) {
	for _, name := range []string{"pow", "poa", "instant", "pbft"} {
		t.Run(name, func(t *testing.T) {
			const peers = 4
			cfg, ks := testCfg(peers)
			be, err := ledger.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			honest := registerTx(t, cfg, ks[0], 0, "peer-A", 1)
			// Warm the cache on every replica: gossip validates the
			// signature once per peer's pending set.
			if err := be.Submit(honest); err != nil {
				t.Fatal(err)
			}
			forged := *honest
			forged.Payload = append([]byte(nil), honest.Payload...)
			forged.Payload[len(forged.Payload)-1] ^= 0x01
			if err := be.Submit(&forged); err == nil {
				t.Fatal("tampered copy of a cached-verified tx gossiped")
			}
			for p := 0; p < peers; p++ {
				if n := be.Pending(p); n != 1 {
					t.Fatalf("peer %d holds %d pending txs, want only the honest one", p, n)
				}
			}
			// The honest tx still commits cleanly everywhere.
			c, err := be.Commit(0, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if c.Txs != 1 {
				t.Fatalf("committed %d txs, want 1", c.Txs)
			}

			model := submitTx(t, cfg, ks[1], 0, 1, []float32{0.5, -1, 0, 2})
			if err := be.Submit(model); err != nil {
				t.Fatal(err)
			}
			if c, err := be.Commit(1, 2000); err != nil || c.Txs != 1 {
				t.Fatalf("submission commit: %d txs, %v", c.Txs, err)
			}
			flipped := *model
			flipped.Payload = append([]byte(nil), model.Payload...)
			flipped.Payload[len(flipped.Payload)-1] ^= 0x01
			if err := be.Submit(&flipped); err == nil {
				t.Fatal("weight-tampered copy of an executed submit tx gossiped")
			}
			call, _ := contract.CallOf(model)
			for p := 0; p < peers; p++ {
				if n := be.Pending(p); n != 0 {
					t.Fatalf("peer %d holds %d pending txs after the tampered submit", p, n)
				}
				subs := contract.SubmissionsAt(be.StateView(p), 1)
				if len(subs) != 1 || subs[0].TxHash != model.Hash() || subs[0].WeightsHash != call.BlobHash() {
					t.Fatalf("peer %d's contract does not hold exactly the honest submission: %+v", p, subs)
				}
			}
		})
	}
}
