package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// sealer is the sealing core, and pow, poa and pbft are values of it:
// the book plus the sealed block list (the only block store), a modeled
// commit latency and an optional puzzle, set by the registry
// (ledger.go). A commit is one seal step that turns a leader's pending
// set into a block validated and executed under the block rule
// (chain.ApplyBlock) — Merkle roots, gas accounting, linkage to the
// parent. One leader seals per commit under a deterministic runner, so
// every peer's copy of the chain would be the same bytes: the core
// keeps one (replication is charged in virtual time by the latency
// rule), with no forks to choose between and no branches to replay.
// pbft wraps the core for the processor that carries its verdicts.
type sealer struct {
	book
	blocks []*chain.Block // sealed ledger incl. genesis
	// latencyMs is CommitLatencyMs, the substrate's modeled interval.
	latencyMs float64
	// solve and verify are the two halves of the substrate's puzzle:
	// the leader solves it on the finished header, and it is verified
	// before the block executes. pow sets them (chain.SolvePoW,
	// chain.VerifyPoW); authority sealing has none.
	solve  func(cfg chain.Config, parent, h *chain.Header)
	verify func(cfg chain.Config, parent, h *chain.Header) error
}

// newSealer builds the core on a fresh book, genesis sealed.
func newSealer(fallback string, cfg Config, latencyMs float64) *sealer {
	genesis := chain.Genesis(cfg.Chain)
	s := &sealer{book: newBook(fallback, cfg), blocks: []*chain.Block{genesis}, latencyMs: latencyMs}
	s.bytes = genesis.Size()
	return s
}

// Commit has the leader seal its pending set into one block under the
// configured processor.
func (s *sealer) Commit(leader int, timeMs uint64) (Commit, error) {
	b, err := s.seal(leader, timeMs, s.cfg.Proc, s.pool.Pending())
	if err != nil {
		return Commit{}, err
	}
	c := commitOf(b)
	c.LatencyMs = s.latencyMs
	return c, nil
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
	s.publish(next, b.Txs, b.Header.GasUsed, b.Size())
	s.blocks = append(s.blocks, b)
	s.pool.RemoveBlock(b)
	return nil
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

// CommitLatencyMs is the substrate's modeled commit interval.
func (s *sealer) CommitLatencyMs() float64 { return s.latencyMs }

func (s *sealer) Footprint() Footprint { return s.footprint(len(s.blocks)) }

// Chain implements Chainer: the sealed blocks, genesis first.
func (s *sealer) Chain(int) []*chain.Block { return s.blocks }
