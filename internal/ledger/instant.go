package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// instantBackend is the consensus-free limit: one shared in-memory
// state machine applies contract calls directly, with no block
// assembly, no per-peer replication, and zero modeled commit latency.
// Signatures, nonces, gas accounting, and contract semantics are all
// still enforced through chain.ApplyTx — only the consensus cost
// (mining, per-peer re-execution, header plumbing) is gone, which is
// what makes huge peer-count sweeps affordable. See DESIGN.md for the
// argument that FL results are preserved.
type instantBackend struct {
	name  string
	cfg   Config
	state *chain.State

	// frozen is the post-commit snapshot every peer's StateView
	// shares: one copy per commit, not one per reader, which is what
	// keeps huge peer-count sweeps cheap.
	frozen    *chain.State
	pending   []*chain.Transaction
	seen      map[chain.Hash]bool
	committed []*chain.Transaction
	batches   int
	gas       uint64
	bytes     int
}

func newInstant(cfg Config) *instantBackend {
	st := chain.NewState()
	for a, v := range cfg.Alloc {
		st.Account(a).Balance = v
	}
	return &instantBackend{name: cfg.nameOr("instant"), cfg: cfg, state: st, frozen: st.Copy(), seen: map[chain.Hash]bool{}}
}

func (be *instantBackend) Name() string { return be.name }

// Submit validates once (there is one logical node) and queues the
// transaction in submission order.
func (be *instantBackend) Submit(tx *chain.Transaction) error {
	if err := tx.ValidateBasic(be.cfg.Chain.Gas); err != nil {
		return err
	}
	h := tx.Hash()
	if be.seen[h] {
		return chain.ErrMempoolDuplicate
	}
	be.seen[h] = true
	be.pending = append(be.pending, tx)
	return nil
}

// Commit applies every pending call to the shared state machine in
// submission order. Inadmissible transactions (bad nonce, funds) are
// dropped, not retried — there is no later block to wait for.
func (be *instantBackend) Commit(leader int, _ uint64) (Commit, error) {
	if leader < 0 || leader >= be.cfg.Peers {
		return Commit{}, fmt.Errorf("ledger: leader %d out of range", leader)
	}
	var (
		applied int
		gasUsed uint64
		size    int
	)
	for _, tx := range be.pending {
		rec, err := chain.ApplyTx(be.cfg.Chain.Gas, be.state, tx, be.cfg.Sealers[leader], be.cfg.Proc)
		if err != nil {
			delete(be.seen, tx.Hash())
			continue
		}
		gasUsed += rec.GasUsed
		size += tx.Size()
		applied++
		be.committed = append(be.committed, tx)
	}
	be.pending = be.pending[:0]
	be.batches++
	be.gas += gasUsed
	be.bytes += size
	be.frozen = be.state.Copy()
	return Commit{
		Height:  uint64(be.batches),
		Txs:     applied,
		GasUsed: gasUsed,
		Bytes:   size,
	}, nil
}

func (be *instantBackend) Pending(int) int { return len(be.pending) }

// StateView returns the shared post-commit snapshot — every peer sees
// the same world the moment a batch applies, so one copy serves all
// concurrent readers (the view is read-only per the interface
// contract).
func (be *instantBackend) StateView(int) *chain.State { return be.frozen }

func (be *instantBackend) CommittedTxs(int) []*chain.Transaction { return be.committed }

// CommitLatencyMs is zero: there is no block interval to wait out.
func (be *instantBackend) CommitLatencyMs() float64 { return 0 }

func (be *instantBackend) Footprint() Footprint {
	return Footprint{Blocks: be.batches, Txs: len(be.committed), GasUsed: be.gas, Bytes: be.bytes}
}
