// White-box tests for the sealing core: what the replicate step does
// with a block between the leader assembling it and the ledger storing
// it.
package ledger

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

// sealing is the three substrates on the sealing core.
var sealing = []string{"pow", "poa", "pbft"}

// sealerCfg is a 3-peer plain-transfer ledger with room for the two
// transfers transferPair builds and then some.
func sealerCfg() (Config, []*keys.Key) {
	ccfg := chain.DefaultConfig()
	ccfg.GenesisDifficulty = 4
	ccfg.MinDifficulty = 1
	ccfg.BlockGasLimit = 100_000
	cfg := Config{Peers: 3, Chain: ccfg, Alloc: map[keys.Address]uint64{}, Proc: chain.NopProcessor{}}
	ks := make([]*keys.Key, cfg.Peers)
	for i := range ks {
		ks[i] = keys.GenerateDeterministic(uint64(700 + i))
		cfg.Alloc[ks[i].Address()] = 1 << 62
		cfg.Sealers = append(cfg.Sealers, ks[i].Address())
	}
	return cfg, ks
}

// coreOf opens a built backend up to its sealing core and processor.
func coreOf(t *testing.T, be Backend) (*sealer, chain.Processor) {
	t.Helper()
	switch b := be.(type) {
	case *sealer:
		return b, b.cfg.Proc
	case *pbftBackend:
		return b.sealer, b.vproc
	}
	t.Fatalf("%T is not on the sealing core", be)
	return nil, nil
}

// transferPair submits two plain transfers at their intrinsic gas
// (21000 each) from ks[0] and ks[1] at the given nonce.
func transferPair(t *testing.T, be Backend, cfg Config, ks []*keys.Key, nonce uint64) {
	t.Helper()
	for i := 0; i < 2; i++ {
		tx, err := chain.NewTx(ks[i], nonce, ks[1-i].Address(), 1, nil, cfg.Chain.Gas, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicasRejectTamperedBlocks is the block rule's tamper table run
// where Commit runs it: on pow, poa and pbft the leader assembles an
// honest block, one field is corrupted in flight, and the replicate
// step must refuse it with the rule's named error — nothing stored,
// nothing cleared from the mempool, and no peer's state moved (a row
// that fails after executing transactions must not leave them
// applied). Difficulty and nonce are pow's puzzle, so those rows run
// on pow only.
func TestReplicasRejectTamperedBlocks(t *testing.T) {
	cases := []struct {
		name    string
		powOnly bool
		// corrupt tampers with b; remine re-solves pow's puzzle (a no-op
		// elsewhere) so a row past the PoW check reaches its own.
		corrupt func(b *chain.Block, parent *chain.Header, remine func())
		want    error
	}{
		{"parent hash", false, func(b *chain.Block, _ *chain.Header, _ func()) { b.Header.ParentHash[0] ^= 1 }, chain.ErrBadParent},
		{"number", false, func(b *chain.Block, _ *chain.Header, _ func()) { b.Header.Number++ }, chain.ErrBadNumber},
		{"time before parent", false, func(b *chain.Block, p *chain.Header, _ func()) { b.Header.Time = p.Time - 1 }, chain.ErrBadTime},
		{"difficulty", true, func(b *chain.Block, _ *chain.Header, remine func()) { b.Header.Difficulty++; remine() }, chain.ErrWrongDifficulty},
		{"nonce", true, func(b *chain.Block, _ *chain.Header, _ func()) {
			for b.Header.Nonce++; chain.CheckPoW(&b.Header); b.Header.Nonce++ {
			}
		}, chain.ErrInvalidPoW},
		{"tx root", false, func(b *chain.Block, _ *chain.Header, remine func()) { b.Header.TxRoot[0] ^= 1; remine() }, chain.ErrBadTxRoot},
		{"header gas limit above config", false, func(b *chain.Block, _ *chain.Header, remine func()) { b.Header.GasLimit++; remine() }, chain.ErrBlockGasExceed},
		{"gas used", false, func(b *chain.Block, _ *chain.Header, remine func()) { b.Header.GasUsed--; remine() }, chain.ErrBadGasUsed},
		{"forged tx signature", false, func(b *chain.Block, _ *chain.Header, remine func()) {
			forged := *b.Txs[0]
			forged.Value++
			b.Txs = []*chain.Transaction{&forged, b.Txs[1]}
			b.Header.TxRoot = chain.MerkleRoot(b.Txs)
			remine()
		}, chain.ErrBadSig},
		{"tx gas over the header limit", false, func(b *chain.Block, _ *chain.Header, remine func()) { b.Header.GasLimit = 30_000; remine() }, chain.ErrBlockGasExceed},
	}
	for _, name := range sealing {
		for _, tc := range cases {
			if tc.powOnly && name != "pow" {
				continue
			}
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				cfg, ks := sealerCfg()
				be, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// A first honest block, so the parent has a nonzero time.
				if _, err := be.Commit(0, 1000); err != nil {
					t.Fatal(err)
				}
				transferPair(t, be, cfg, ks, 0)
				s, proc := coreOf(t, be)
				parent := &s.blocks[len(s.blocks)-1].Header
				before := make([]map[keys.Address]*chain.Account, cfg.Peers)
				for p := range before {
					before[p] = be.StateView(p).Copy().Accounts
				}
				b := s.assemble(1, 2000, proc, s.pool.Pending())
				if len(b.Txs) != 2 {
					t.Fatalf("assembled %d txs, want 2", len(b.Txs))
				}
				tc.corrupt(b, parent, func() {
					if s.solve != nil {
						chain.Mine(&b.Header)
					}
				})
				if err := s.replicate(b, proc); !errors.Is(err, tc.want) {
					t.Fatalf("replicate: err = %v, want %v", err, tc.want)
				}
				if len(s.blocks) != 2 || len(s.committed) != 0 || be.Pending(2) != 2 {
					t.Fatalf("a refused block was stored: %d blocks, %d committed txs, %d pending", len(s.blocks), len(s.committed), be.Pending(2))
				}
				for p := range before {
					if !reflect.DeepEqual(be.StateView(p).Accounts, before[p]) {
						t.Fatalf("a refused block moved peer %d's state", p)
					}
				}
			})
		}
	}
}

// TestCommitRejectsOutOfRangeLeader: a leader outside the peers is an
// error on every backend, not a panic, and the commit it was refused
// for leaves the pending transactions and the ledger as they were.
func TestCommitRejectsOutOfRangeLeader(t *testing.T) {
	for _, name := range []string{"pow", "poa", "pbft", "instant"} {
		cfg, ks := sealerCfg()
		for _, leader := range []int{-1, cfg.Peers} {
			t.Run(fmt.Sprintf("%s/leader %d", name, leader), func(t *testing.T) {
				be, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				transferPair(t, be, cfg, ks, 0)
				before := be.Footprint()
				_, err = be.Commit(leader, 1000)
				if want := fmt.Sprintf("ledger: leader %d out of range", leader); err == nil || err.Error() != want {
					t.Fatalf("Commit(%d): err = %v, want %q", leader, err, want)
				}
				if be.Pending(0) != 2 || be.Footprint() != before {
					t.Fatalf("a refused commit changed the ledger: %d pending, footprint %+v, was %+v", be.Pending(0), be.Footprint(), before)
				}
			})
		}
	}
}

// TestSealedChainReplaysUnderTheBlockRule: every sealing substrate is a
// Chainer, its chain starts at the config's genesis, and folding the
// block rule (with the substrate's puzzle) over it from the genesis
// allocation reproduces each peer's replicated state — what the audit
// replay does with a saved chain.
func TestSealedChainReplaysUnderTheBlockRule(t *testing.T) {
	for _, name := range sealing {
		t.Run(name, func(t *testing.T) {
			cfg, ks := sealerCfg()
			be, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := uint64(0); round < 3; round++ {
				transferPair(t, be, cfg, ks, round)
				if c, err := be.Commit(int(round)%cfg.Peers, (round+1)*1000); err != nil || c.Txs != 2 {
					t.Fatalf("commit %d: %d txs, %v", round, c.Txs, err)
				}
			}
			blocks := be.(Chainer).Chain(0)
			if len(blocks) != 4 || blocks[0].Hash() != chain.Genesis(cfg.Chain).Hash() {
				t.Fatalf("chain has %d blocks, genesis %s", len(blocks), blocks[0].Hash().Short())
			}
			s, proc := coreOf(t, be)
			if mined := blocks[1].Header.Difficulty != 0; mined != (name == "pow") {
				t.Fatalf("block 1 difficulty %d", blocks[1].Header.Difficulty)
			}
			st := chain.NewState()
			for a, v := range cfg.Alloc {
				st.Account(a).Balance = v
			}
			for i, b := range blocks[1:] {
				if err := chain.ApplyBlock(cfg.Chain, &blocks[i].Header, b, st, proc, s.verify); err != nil {
					t.Fatalf("block %d: %v", i+1, err)
				}
			}
			for peer := 0; peer < cfg.Peers; peer++ {
				if !reflect.DeepEqual(st.Accounts, be.StateView(peer).Accounts) {
					t.Fatalf("peer %d's state differs from the replayed chain's", peer)
				}
			}
		})
	}
}
