package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// sealer is the authority-sealing core poa and pbft embed: per-peer
// mempools and replicated states, the sealed block list, and the one
// seal step that turns a leader's pending set into a block every peer
// has executed. It seals real blocks — Merkle roots, gas accounting,
// receipts via chain.ApplyTx — with no mining loop, no difficulty
// retargeting and no branch replay. Every peer still validates and
// executes every block (the consortium cost model), so state views
// stay per-peer. What a substrate adds on top is its latency model
// (poa: a fixed slot; pbft: the analytic three-phase model) and, for
// pbft, the processor that carries the verification verdicts.
type sealer struct {
	name   string
	cfg    Config
	pools  []*chain.Mempool
	states []*chain.State
	blocks []*chain.Block // sealed ledger incl. genesis; identical at every peer
	// committed is every sealed transaction in canonical order, grown
	// by append so a view handed out earlier is never rewritten.
	committed []*chain.Transaction
	bytes     int
	gas       uint64
}

// newSealer builds the core under the registry name New passed down
// (fallback: the substrate's own name, for factories called directly).
func newSealer(fallback string, cfg Config) sealer {
	genesis := &chain.Block{Header: chain.Header{
		GasLimit: cfg.Chain.BlockGasLimit,
		TxRoot:   chain.MerkleRoot(nil),
	}}
	s := sealer{
		name:   cfg.nameOr(fallback),
		cfg:    cfg,
		pools:  newPools(cfg),
		states: make([]*chain.State, cfg.Peers),
		blocks: []*chain.Block{genesis},
		bytes:  genesis.Size(),
	}
	for i := range s.states {
		st := chain.NewState()
		for a, v := range cfg.Alloc {
			st.Account(a).Balance = v
		}
		s.states[i] = st
	}
	return s
}

// newPools builds one empty mempool per peer.
func newPools(cfg Config) []*chain.Mempool {
	pools := make([]*chain.Mempool, cfg.Peers)
	for i := range pools {
		pools[i] = chain.NewMempool(cfg.Chain.Gas)
	}
	return pools
}

// gossip lands the transaction in every peer's mempool (each node
// validates on admission, as a real network would) — admission is
// consensus-independent, so pow and the sealing substrates share it.
func gossip(pools []*chain.Mempool, tx *chain.Transaction) error {
	for i, pool := range pools {
		if err := pool.Add(tx); err != nil {
			return fmt.Errorf("ledger: peer %d mempool: %w", i, err)
		}
	}
	return nil
}

func (s *sealer) Name() string { return s.name }

// Submit gossips the transaction into every peer's mempool.
func (s *sealer) Submit(tx *chain.Transaction) error { return gossip(s.pools, tx) }

// seal has the leader authority drain pending (its mempool in block-
// building order) under the block gas cap — the same selection rule as
// PoW assembly (chain.SelectTxs on a scratch copy of the leader's
// state: capacity-evicted and inadmissible txs stay pooled) — seal the
// block with no puzzle, and replicate execution on every peer's state.
func (s *sealer) seal(leader int, timeMs uint64, proc chain.Processor, pending []*chain.Transaction) (*chain.Block, error) {
	parent := s.blocks[len(s.blocks)-1]
	if timeMs < parent.Header.Time {
		timeMs = parent.Header.Time
	}
	header := chain.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Header.Number + 1,
		Time:       timeMs,
		Miner:      s.cfg.Sealers[leader],
		GasLimit:   s.cfg.Chain.BlockGasLimit,
	}
	scratch := s.states[leader].Copy()
	included, gasUsed := chain.SelectTxs(s.cfg.Chain.Gas, scratch, header.Miner, proc, pending, header.GasLimit)
	header.GasUsed = gasUsed
	header.TxRoot = chain.MerkleRoot(included)
	b := &chain.Block{Header: header, Txs: included}

	// Replicated execution: every authority/peer validates the block
	// by applying it to its own state (same receipts everywhere).
	for i, st := range s.states {
		var got uint64
		for _, tx := range included {
			rec, err := chain.ApplyTx(s.cfg.Chain.Gas, st, tx, header.Miner, proc)
			if err != nil {
				return nil, fmt.Errorf("ledger: peer %d replay: %w", i, err)
			}
			got += rec.GasUsed
		}
		if got != gasUsed {
			return nil, fmt.Errorf("ledger: peer %d gas %d != sealed %d", i, got, gasUsed)
		}
		st.Account(header.Miner).Balance += s.cfg.Chain.BlockReward
	}

	s.blocks = append(s.blocks, b)
	s.committed = append(s.committed, included...)
	s.bytes += b.Size()
	s.gas += gasUsed
	for _, pool := range s.pools {
		pool.RemoveBlock(b)
	}
	return b, nil
}

// commitOf summarizes a sealed block; the substrate fills in its
// latency (and pbft its verdicts).
func commitOf(b *chain.Block) Commit {
	return Commit{
		Height:  b.Header.Number,
		Txs:     len(b.Txs),
		GasUsed: b.Header.GasUsed,
		Bytes:   b.Size(),
		Hash:    b.Hash(),
	}
}

func (s *sealer) Pending(peer int) int { return s.pools[peer].Len() }

// StateView copies the peer's replicated state: each authority holds
// (and keeps mutating) its own, so readers get an isolated snapshot.
func (s *sealer) StateView(peer int) *chain.State { return s.states[peer].Copy() }

func (s *sealer) CommittedTxs(int) []*chain.Transaction { return s.committed }

func (s *sealer) Footprint() Footprint {
	return Footprint{Blocks: len(s.blocks), Txs: len(s.committed), GasUsed: s.gas, Bytes: s.bytes}
}
