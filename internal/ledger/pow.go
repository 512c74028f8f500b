package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// powBackend is the original substrate: every peer runs a full
// chain.Chain and a mempool; Submit gossips into every mempool, and
// Commit has the leader drain its pool (gas-price order, gas-capacity
// bounded), mine a block, and apply it to every peer's chain —
// the deterministic stand-in for block gossip the pre-ledger runner
// hard-coded.
type powBackend struct {
	name   string
	cfg    Config
	chains []*chain.Chain
	pools  []*chain.Mempool
}

func newPoW(cfg Config) *powBackend {
	be := &powBackend{
		name:   cfg.nameOr("pow"),
		cfg:    cfg,
		chains: make([]*chain.Chain, cfg.Peers),
		pools:  newPools(cfg),
	}
	for i := range be.chains {
		be.chains[i] = chain.New(cfg.Chain, cfg.Alloc, cfg.Proc)
	}
	return be
}

func (be *powBackend) Name() string { return be.name }

// Submit gossips the transaction into every peer's mempool.
func (be *powBackend) Submit(tx *chain.Transaction) error { return gossip(be.pools, tx) }

// Commit drains the leader's mempool into a mined block and applies it
// to every peer's chain. Transactions the block's gas capacity evicts
// stay pooled for a later commit; included transactions are removed
// from every peer's pool.
func (be *powBackend) Commit(leader int, timeMs uint64) (Commit, error) {
	b := be.chains[leader].AssembleAndMine(be.cfg.Sealers[leader], be.pools[leader].Pending(), timeMs, 0, nil)
	if b == nil {
		return Commit{}, fmt.Errorf("ledger: mining aborted")
	}
	for i, c := range be.chains {
		if _, err := c.AddBlock(b); err != nil {
			return Commit{}, fmt.Errorf("ledger: peer %d: %w", i, err)
		}
	}
	for _, pool := range be.pools {
		pool.RemoveBlock(b)
	}
	c := commitOf(b)
	c.LatencyMs = be.CommitLatencyMs()
	return c, nil
}

func (be *powBackend) Pending(peer int) int { return be.pools[peer].Len() }

func (be *powBackend) StateView(peer int) *chain.State { return be.chains[peer].StateCopy() }

func (be *powBackend) CommittedTxs(peer int) []*chain.Transaction {
	var out []*chain.Transaction
	for _, b := range be.chains[peer].CanonicalChain() {
		out = append(out, b.Txs...)
	}
	return out
}

// CommitLatencyMs models PoW visibility as one full target interval:
// under memoryless sealing the expected wait from submission to the
// next sealed block is the interval itself.
func (be *powBackend) CommitLatencyMs() float64 {
	return float64(be.cfg.Chain.TargetIntervalMs)
}

func (be *powBackend) Footprint() Footprint {
	var out Footprint
	for _, b := range be.chains[0].CanonicalChain() {
		out.Blocks++
		out.Txs += len(b.Txs)
		out.GasUsed += b.Header.GasUsed
		out.Bytes += b.Size()
	}
	return out
}

// Chain implements Chainer.
func (be *powBackend) Chain(peer int) *chain.Chain { return be.chains[peer] }
