package ledger

import "waitornot/internal/chain"

// instantBackend is the consensus-free limit: the book plus a batch
// counter, applying contract calls directly with no block assembly and
// zero modeled commit latency. Signatures, nonces, gas accounting, and
// contract semantics are all still enforced through chain.ApplyTx —
// only the consensus cost (mining, block validation, header plumbing)
// is gone, which is what makes huge peer-count sweeps affordable. See
// DESIGN.md for the argument that FL results are preserved.
type instantBackend struct {
	book
	batches int
}

// Commit applies the pool's pending set, in pool order, to a copy of
// the committed state, publishes the copy and drops every transaction
// it saw from the pool. Inadmissible transactions (bad nonce, funds)
// are dropped, not retried — there is no later block to wait for.
func (be *instantBackend) Commit(leader int, _ uint64) (Commit, error) {
	if err := be.cfg.checkLeader(leader); err != nil {
		return Commit{}, err
	}
	pending := be.pool.Pending()
	next := be.state.Copy()
	var (
		applied []*chain.Transaction
		gasUsed uint64
		size    int
	)
	for _, tx := range pending {
		rec, err := chain.ApplyTx(be.cfg.Chain.Gas, next, tx, be.cfg.Sealers[leader], be.cfg.Proc)
		if err != nil {
			continue
		}
		gasUsed += rec.GasUsed
		size += tx.Size()
		applied = append(applied, tx)
	}
	be.publish(next, applied, gasUsed, size)
	be.pool.RemoveBlock(&chain.Block{Txs: pending})
	be.batches++
	return Commit{Height: uint64(be.batches), Txs: len(applied), GasUsed: gasUsed, Bytes: size}, nil
}

// CommitLatencyMs is zero: there is no block interval to wait out.
func (be *instantBackend) CommitLatencyMs() float64 { return 0 }

// Footprint counts batches as blocks; instant has no genesis.
func (be *instantBackend) Footprint() Footprint { return be.footprint(be.batches) }
