package ledger_test

import (
	"reflect"
	"sync"
	"testing"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
)

// testCfg builds a low-difficulty ledger config for n peers using the
// contract VM, so commits exercise real execution.
func testCfg(n int) (ledger.Config, []*keys.Key) {
	ccfg := chain.DefaultConfig()
	ccfg.GenesisDifficulty = 4
	ccfg.MinDifficulty = 1
	ks := make([]*keys.Key, n)
	alloc := make(map[keys.Address]uint64, n)
	sealers := make([]keys.Address, n)
	for i := range ks {
		ks[i] = keys.GenerateDeterministic(uint64(500 + i))
		alloc[ks[i].Address()] = 1 << 62
		sealers[i] = ks[i].Address()
	}
	return ledger.Config{
		Peers:   n,
		Chain:   ccfg,
		Alloc:   alloc,
		Proc:    contract.NewVM(ccfg.Gas),
		Sealers: sealers,
	}, ks
}

func registerTx(t *testing.T, cfg ledger.Config, k *keys.Key, nonce uint64, name string, gasPrice uint64) *chain.Transaction {
	t.Helper()
	tx, err := chain.NewTx(k, nonce, contract.RegistryAddress, 0,
		contract.RegisterCallData(name), cfg.Chain.Gas, 1_000_000, gasPrice)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestRegistryBuiltins(t *testing.T) {
	names := ledger.Names()
	want := map[string]bool{"pow": true, "poa": true, "instant": true, "pbft": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("builtin backends missing from registry: %v (have %v)", want, names)
	}
	for _, in := range ledger.Backends() {
		if in.Name == "" || in.Description == "" {
			t.Fatalf("backend listing incomplete: %+v", in)
		}
	}

	cfg, _ := testCfg(2)
	be, err := ledger.New("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "pow" {
		t.Fatalf("empty name built %q, want the pow default", be.Name())
	}
	if _, ok := be.(ledger.Chainer); !ok {
		t.Fatal("pow backend must expose its chain")
	}
	if _, err := ledger.New("no-such-backend", cfg); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := ledger.Register("", "x", nil); err == nil {
		t.Fatal("nameless registration accepted")
	}
	if err := ledger.Register("pow", "dup", func(ledger.Config) (ledger.Backend, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestGossipAndMempoolDrain is the dead-mempool regression: Submit
// must land in every peer's pending set and Commit must drain it —
// the pre-ledger runner built mempools it never used.
func TestGossipAndMempoolDrain(t *testing.T) {
	for _, name := range []string{"pow", "poa", "instant"} {
		t.Run(name, func(t *testing.T) {
			cfg, ks := testCfg(3)
			be, err := ledger.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range ks {
				if err := be.Submit(registerTx(t, cfg, k, 0, string(rune('A'+i)), 1)); err != nil {
					t.Fatal(err)
				}
			}
			for peer := 0; peer < cfg.Peers; peer++ {
				if got := be.Pending(peer); got != 3 {
					t.Fatalf("peer %d pending = %d before commit, want 3 (gossip broken)", peer, got)
				}
			}
			c, err := be.Commit(0, cfg.Chain.TargetIntervalMs)
			if err != nil {
				t.Fatal(err)
			}
			if c.Txs != 3 {
				t.Fatalf("commit included %d txs, want 3", c.Txs)
			}
			if c.GasUsed == 0 {
				t.Fatal("commit reports zero gas for contract calls")
			}
			for peer := 0; peer < cfg.Peers; peer++ {
				if got := be.Pending(peer); got != 0 {
					t.Fatalf("peer %d pending = %d after commit, want 0 (drain broken)", peer, got)
				}
				if got := len(be.CommittedTxs(peer)); got != 3 {
					t.Fatalf("peer %d sees %d committed txs, want 3", peer, got)
				}
				st := be.StateView(peer)
				for i, k := range ks {
					if name := contract.NameOf(st, k.Address()); name != string(rune('A'+i)) {
						t.Fatalf("peer %d state missing registration %d (got %q)", peer, i, name)
					}
				}
			}
			// Resubmitting a committed transaction is a duplicate at
			// the ledger (pow/poa dedup in the pool; instant in its
			// seen set) or a stateless-nonce admit that the next
			// commit rejects — either way it must not commit twice.
			_ = be.Submit(registerTx(t, cfg, ks[0], 0, "A", 1))
			c2, err := be.Commit(1, 2*cfg.Chain.TargetIntervalMs)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Txs != 0 {
				t.Fatalf("stale-nonce tx committed again (%d txs)", c2.Txs)
			}
		})
	}
}

// TestCommittedTxsViewIsAppendOnly pins the CommittedTxs contract the
// engine's incremental tx index (and the sealing core's
// running list) relies on, on every built-in: a view taken before a
// Commit is unchanged after it, and the next view extends it by
// exactly the transactions that Commit included.
func TestCommittedTxsViewIsAppendOnly(t *testing.T) {
	for _, name := range []string{"pow", "poa", "pbft", "instant"} {
		t.Run(name, func(t *testing.T) {
			cfg, ks := testCfg(3)
			be, err := ledger.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var view []*chain.Transaction
			for round := uint64(0); round < 3; round++ {
				before := append([]*chain.Transaction(nil), view...)
				// One, two, then three transactions per commit.
				for i := uint64(0); i <= round; i++ {
					if err := be.Submit(registerTx(t, cfg, ks[i], round-i, string(rune('A'+i)), 1)); err != nil {
						t.Fatal(err)
					}
				}
				c, err := be.Commit(int(round)%cfg.Peers, (round+1)*cfg.Chain.TargetIntervalMs)
				if err != nil {
					t.Fatal(err)
				}
				if c.Txs != int(round)+1 {
					t.Fatalf("commit %d included %d txs, want %d", round, c.Txs, round+1)
				}
				for i := range before {
					if view[i] != before[i] {
						t.Fatalf("commit %d rewrote entry %d of a view taken before it", round, i)
					}
				}
				for peer := 0; peer < cfg.Peers; peer++ {
					next := be.CommittedTxs(peer)
					if len(next) != len(before)+c.Txs {
						t.Fatalf("commit %d: peer %d view grew %d -> %d, want +%d", round, peer, len(before), len(next), c.Txs)
					}
					for i := range before {
						if next[i] != before[i] {
							t.Fatalf("commit %d: peer %d view does not extend the previous one at %d", round, peer, i)
						}
					}
				}
				view = be.CommittedTxs(0)
			}
		})
	}
}

// TestGasCapacityEviction pins block-capacity ordering for the
// block-building backends: with room for one transaction per block,
// the higher-priced transaction commits first and the other stays
// pooled on every peer until the next commit.
func TestGasCapacityEviction(t *testing.T) {
	for _, name := range []string{"pow", "poa"} {
		t.Run(name, func(t *testing.T) {
			cfg, ks := testCfg(2)
			// Plain transfers: GasLimit == intrinsic == TxBase. Cap the
			// block so one fits and two do not.
			cfg.Chain.BlockGasLimit = cfg.Chain.Gas.TxBase + cfg.Chain.Gas.TxBase/2
			cfg.Proc = chain.NopProcessor{}
			be, err := ledger.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cheap, err := chain.NewTx(ks[0], 0, ks[1].Address(), 1, nil, cfg.Chain.Gas, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			dear, err := chain.NewTx(ks[1], 0, ks[0].Address(), 1, nil, cfg.Chain.Gas, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.Submit(cheap); err != nil {
				t.Fatal(err)
			}
			if err := be.Submit(dear); err != nil {
				t.Fatal(err)
			}

			c1, err := be.Commit(0, cfg.Chain.TargetIntervalMs)
			if err != nil {
				t.Fatal(err)
			}
			if c1.Txs != 1 {
				t.Fatalf("first commit included %d txs, want 1 (capacity not enforced)", c1.Txs)
			}
			if got := be.CommittedTxs(0); got[len(got)-1].Hash() != dear.Hash() {
				t.Fatal("capacity eviction must keep the higher gas price")
			}
			for peer := 0; peer < cfg.Peers; peer++ {
				if got := be.Pending(peer); got != 1 {
					t.Fatalf("peer %d pending = %d after capacity eviction, want 1", peer, got)
				}
			}

			c2, err := be.Commit(1, 2*cfg.Chain.TargetIntervalMs)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Txs != 1 {
				t.Fatalf("evicted tx not committed on the next block (%d txs)", c2.Txs)
			}
			if got := be.Pending(0); got != 0 {
				t.Fatalf("pending = %d after second commit, want 0", got)
			}
		})
	}
}

// TestPoAMatchesPoWExecution: authority sealing must produce the same
// execution results as mining — same per-commit gas, same contract
// state — it only drops the consensus cost.
func TestPoAMatchesPoWExecution(t *testing.T) {
	cfgA, ks := testCfg(3)
	cfgB, _ := testCfg(3)
	pow, err := ledger.New("pow", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	poa, err := ledger.New("poa", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i, k := range ks {
			name := string(rune('A'+i)) + string(rune('0'+round))
			txP := registerTx(t, cfgA, k, uint64(round), name, 1)
			if err := pow.Submit(txP); err != nil {
				t.Fatal(err)
			}
			if err := poa.Submit(txP); err != nil {
				t.Fatal(err)
			}
		}
		at := uint64(round+1) * cfgA.Chain.TargetIntervalMs
		cp, err := pow.Commit(round%3, at)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := poa.Commit(round%3, at)
		if err != nil {
			t.Fatal(err)
		}
		if cp.GasUsed != ca.GasUsed || cp.Txs != ca.Txs {
			t.Fatalf("round %d: pow gas/txs %d/%d != poa %d/%d",
				round, cp.GasUsed, cp.Txs, ca.GasUsed, ca.Txs)
		}
	}
	stP, stA := pow.StateView(0), poa.StateView(0)
	if !reflect.DeepEqual(stP.Storage, stA.Storage) {
		t.Fatal("poa contract storage diverged from pow")
	}
	if pow.CommitLatencyMs() <= poa.CommitLatencyMs() {
		t.Fatalf("poa commit latency (%.0f ms) must undercut pow (%.0f ms)",
			poa.CommitLatencyMs(), pow.CommitLatencyMs())
	}
	fpP, fpA := pow.Footprint(), poa.Footprint()
	if fpP.Txs != fpA.Txs || fpP.GasUsed != fpA.GasUsed || fpP.Blocks != fpA.Blocks {
		t.Fatalf("footprints diverged: pow %+v poa %+v", fpP, fpA)
	}
}

// TestInstantMatchesContractState: the consensus-free backend must
// leave the same contract storage as pow, with zero commit latency
// and no chain behind it.
func TestInstantMatchesContractState(t *testing.T) {
	cfgA, ks := testCfg(3)
	cfgB, _ := testCfg(3)
	pow, err := ledger.New("pow", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ledger.New("instant", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		tx := registerTx(t, cfgA, k, 0, string(rune('A'+i)), 1)
		if err := pow.Submit(tx); err != nil {
			t.Fatal(err)
		}
		if err := inst.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pow.Commit(0, cfgA.Chain.TargetIntervalMs); err != nil {
		t.Fatal(err)
	}
	ci, err := inst.Commit(0, cfgB.Chain.TargetIntervalMs)
	if err != nil {
		t.Fatal(err)
	}
	if ci.LatencyMs != 0 || inst.CommitLatencyMs() != 0 {
		t.Fatal("instant backend must model zero commit latency")
	}
	if !reflect.DeepEqual(pow.StateView(0).Storage, inst.StateView(2).Storage) {
		t.Fatal("instant contract storage diverged from pow")
	}
	if _, ok := inst.(ledger.Chainer); ok {
		t.Fatal("instant backend must not claim a block chain")
	}
	if fp := inst.Footprint(); fp.Txs != 3 || fp.Blocks != 1 || fp.GasUsed != ci.GasUsed {
		t.Fatalf("instant footprint %+v inconsistent with commit %+v", fp, ci)
	}
}

// registerVariant registers TestVariantRename's variant once per
// process: the registry is process-global, so a second pass of the test
// (go test -count=2) sees the name already taken.
var registerVariant = sync.OnceValue(func() error {
	base, _ := ledger.Lookup("pow")
	return ledger.Register("pow-test-variant", "pow at a 5s interval", func(cfg ledger.Config) (ledger.Backend, error) {
		cfg.Chain.TargetIntervalMs = 5000
		return base(cfg)
	})
})

// TestVariantRename: a factory registered under a new name reports
// that name from the built backend, keeping the Chainer capability of
// its base.
func TestVariantRename(t *testing.T) {
	if err := registerVariant(); err != nil {
		t.Fatal(err)
	}
	cfg, _ := testCfg(2)
	be, err := ledger.New("pow-test-variant", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "pow-test-variant" {
		t.Fatalf("variant reports base name %q", be.Name())
	}
	if be.CommitLatencyMs() != 5000 {
		t.Fatalf("variant interval override lost: %.0f ms", be.CommitLatencyMs())
	}
	ch, ok := be.(ledger.Chainer)
	if !ok {
		t.Fatal("variant lost the base's Chainer capability")
	}
	if ch.Chain(0) == nil {
		t.Fatal("variant chain view is nil")
	}
	// Committing at the variant's own cadence keeps difficulty at its
	// retarget equilibrium (the runner derives its round clock from
	// CommitLatencyMs for exactly this reason).
	step := uint64(be.CommitLatencyMs())
	for i := 1; i <= 4; i++ {
		if _, err := be.Commit(0, uint64(i)*step); err != nil {
			t.Fatal(err)
		}
	}
	head := ch.Chain(0)[len(ch.Chain(0))-1].Header
	if head.Difficulty != cfg.Chain.GenesisDifficulty {
		t.Fatalf("difficulty drifted to %d at the variant's own cadence (genesis %d)",
			head.Difficulty, cfg.Chain.GenesisDifficulty)
	}
}
