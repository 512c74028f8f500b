package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// sealer is the sealing core pow, poa and pbft embed, and the only
// block store: the one mempool, the one committed state, the sealed
// block list, and the one seal step that turns a leader's pending set
// into a block validated and executed under the block rule
// (chain.ApplyBlock) — Merkle roots, gas accounting, linkage to the
// parent. One leader seals per commit under a deterministic runner,
// so every peer's copy of the chain would be the same bytes: the core
// keeps one (replication is charged in virtual time by the latency
// rule), with no forks to choose between and no branches to replay.
// What a substrate adds is its latency model (pow: the target
// interval; poa: a fixed slot; pbft: the analytic three-phase model),
// its puzzle (pow), and, for pbft, the processor that carries the
// verification verdicts.
type sealer struct {
	name string
	cfg  Config
	// solve and verify are the two halves of the substrate's puzzle:
	// the leader solves it on the finished header, and it is verified
	// before the block executes. pow sets them (chain.SolvePoW,
	// chain.VerifyPoW); authority sealing has none.
	solve  func(cfg chain.Config, parent, h *chain.Header)
	verify func(cfg chain.Config, parent, h *chain.Header) error
	pool   *chain.Mempool
	// state is the committed state. A block executes on a copy that
	// replaces it only once accepted, so a published state is never
	// written again and every reader may share it.
	state  *chain.State
	blocks []*chain.Block // sealed ledger incl. genesis
	// committed is every sealed transaction in canonical order, grown
	// by append so a view handed out earlier is never rewritten.
	committed []*chain.Transaction
	bytes     int
	gas       uint64
}

// newSealer builds the core under the registry name New passed down
// (fallback: the substrate's own name, for factories called directly).
func newSealer(fallback string, cfg Config) sealer {
	genesis := chain.Genesis(cfg.Chain)
	return sealer{
		name:   cfg.nameOr(fallback),
		cfg:    cfg,
		pool:   chain.NewMempool(cfg.Chain.Gas),
		state:  cfg.genesisState(),
		blocks: []*chain.Block{genesis},
		bytes:  genesis.Size(),
	}
}

func (s *sealer) Name() string { return s.name }

// Submit validates the transaction on admission and pools it.
func (s *sealer) Submit(tx *chain.Transaction) error {
	if err := s.pool.Add(tx); err != nil {
		return fmt.Errorf("ledger: mempool: %w", err)
	}
	return nil
}

// seal is one commit: the leader assembles a block from pending (the
// mempool in block-building order), the block rule validates and
// executes it, and it joins the ledger.
func (s *sealer) seal(leader int, timeMs uint64, proc chain.Processor, pending []*chain.Transaction) (*chain.Block, error) {
	if err := s.cfg.checkLeader(leader); err != nil {
		return nil, err
	}
	b := s.assemble(leader, timeMs, proc, pending)
	if err := s.replicate(b, proc); err != nil {
		return nil, err
	}
	return b, nil
}

// assemble has the leader build the next block on the ledger's head:
// drain pending under the block gas cap (chain.SelectTxs on a scratch
// copy of the committed state: capacity-evicted and inadmissible txs
// stay pooled), fill in the header, and solve the substrate's puzzle.
func (s *sealer) assemble(leader int, timeMs uint64, proc chain.Processor, pending []*chain.Transaction) *chain.Block {
	parent := &s.blocks[len(s.blocks)-1].Header
	if timeMs < parent.Time {
		timeMs = parent.Time
	}
	header := chain.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number + 1,
		Time:       timeMs,
		Miner:      s.cfg.Sealers[leader],
		GasLimit:   s.cfg.Chain.BlockGasLimit,
	}
	scratch := s.state.Copy()
	included, gasUsed := chain.SelectTxs(s.cfg.Chain.Gas, scratch, header.Miner, proc, pending, header.GasLimit)
	header.GasUsed = gasUsed
	header.TxRoot = chain.MerkleRoot(included)
	if s.solve != nil {
		s.solve(s.cfg.Chain, parent, &header)
	}
	return &chain.Block{Header: header, Txs: included}
}

// replicate is block gossip under the deterministic runner: the block
// rule runs on b against a copy of the committed state, and only an
// accepted block publishes that copy, is stored and is cleared from
// the mempool. A refused block leaves the committed state untouched.
func (s *sealer) replicate(b *chain.Block, proc chain.Processor) error {
	parent := &s.blocks[len(s.blocks)-1].Header
	next := s.state.Copy()
	if err := chain.ApplyBlock(s.cfg.Chain, parent, b, next, proc, s.verify); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	s.state = next
	s.blocks = append(s.blocks, b)
	s.committed = append(s.committed, b.Txs...)
	s.bytes += b.Size()
	s.gas += b.Header.GasUsed
	s.pool.RemoveBlock(b)
	return nil
}

// commit is Commit for a substrate with a fixed modeled latency and
// the configured processor (pow, poa): seal the leader's pending set.
func (s *sealer) commit(leader int, timeMs uint64, latencyMs float64) (Commit, error) {
	b, err := s.seal(leader, timeMs, s.cfg.Proc, s.pool.Pending())
	if err != nil {
		return Commit{}, err
	}
	c := commitOf(b)
	c.LatencyMs = latencyMs
	return c, nil
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

func (s *sealer) Pending(int) int { return s.pool.Len() }

// StateView returns the committed state itself: a commit publishes a
// new state rather than writing this one, so every reader shares it.
func (s *sealer) StateView(int) *chain.State { return s.state }

func (s *sealer) CommittedTxs(int) []*chain.Transaction { return s.committed }

func (s *sealer) Footprint() Footprint {
	return Footprint{Blocks: len(s.blocks), Txs: len(s.committed), GasUsed: s.gas, Bytes: s.bytes}
}

// Chain implements Chainer: the sealed blocks, genesis first.
func (s *sealer) Chain(int) []*chain.Block { return s.blocks }
