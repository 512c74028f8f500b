package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// sealer is the sealing core pow, poa and pbft embed, and the only
// block store: per-peer mempools and replicated states, the sealed
// block list, and the one seal step that turns a leader's pending set
// into a block every peer has validated and executed under the block
// rule (chain.ApplyBlock) — Merkle roots, gas accounting, linkage to
// the parent. One leader seals per commit, so there are no forks to
// choose between and no branches to replay. What a substrate adds is
// its latency model (pow: the target interval; poa: a fixed slot; pbft:
// the analytic three-phase model), its puzzle (pow), and, for pbft, the
// processor that carries the verification verdicts.
type sealer struct {
	name string
	cfg  Config
	// solve and verify are the two halves of the substrate's puzzle:
	// the leader solves it on the finished header, every replica
	// verifies it before executing the block. pow sets them
	// (chain.SolvePoW, chain.VerifyPoW); authority sealing has none.
	solve  func(cfg chain.Config, parent, h *chain.Header)
	verify func(cfg chain.Config, parent, h *chain.Header) error
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
	genesis := chain.Genesis(cfg.Chain)
	s := sealer{
		name:   cfg.nameOr(fallback),
		cfg:    cfg,
		pools:  make([]*chain.Mempool, cfg.Peers),
		states: make([]*chain.State, cfg.Peers),
		blocks: []*chain.Block{genesis},
		bytes:  genesis.Size(),
	}
	for i := range s.states {
		s.pools[i] = chain.NewMempool(cfg.Chain.Gas)
		st := chain.NewState()
		for a, v := range cfg.Alloc {
			st.Account(a).Balance = v
		}
		s.states[i] = st
	}
	return s
}

func (s *sealer) Name() string { return s.name }

// Submit gossips the transaction into every peer's mempool: each node
// validates on admission, as a real network would.
func (s *sealer) Submit(tx *chain.Transaction) error {
	for i, pool := range s.pools {
		if err := pool.Add(tx); err != nil {
			return fmt.Errorf("ledger: peer %d mempool: %w", i, err)
		}
	}
	return nil
}

// seal is one commit: the leader assembles a block from pending (its
// mempool in block-building order), every peer validates and executes
// it, and it joins the ledger.
func (s *sealer) seal(leader int, timeMs uint64, proc chain.Processor, pending []*chain.Transaction) (*chain.Block, error) {
	b := s.assemble(leader, timeMs, proc, pending)
	if err := s.replicate(b, proc); err != nil {
		return nil, err
	}
	return b, nil
}

// assemble has the leader build the next block on the ledger's head:
// drain pending under the block gas cap (chain.SelectTxs on a scratch
// copy of the leader's state: capacity-evicted and inadmissible txs
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
	scratch := s.states[leader].Copy()
	included, gasUsed := chain.SelectTxs(s.cfg.Chain.Gas, scratch, header.Miner, proc, pending, header.GasLimit)
	header.GasUsed = gasUsed
	header.TxRoot = chain.MerkleRoot(included)
	if s.solve != nil {
		s.solve(s.cfg.Chain, parent, &header)
	}
	return &chain.Block{Header: header, Txs: included}
}

// replicate is block gossip under the deterministic runner: every peer
// — the leader included — runs the block rule on b against its own
// state (same receipts everywhere), and only a block every peer
// accepted is stored and cleared from the mempools.
func (s *sealer) replicate(b *chain.Block, proc chain.Processor) error {
	parent := &s.blocks[len(s.blocks)-1].Header
	for i, st := range s.states {
		if err := chain.ApplyBlock(s.cfg.Chain, parent, b, st, proc, s.verify); err != nil {
			return fmt.Errorf("ledger: peer %d: %w", i, err)
		}
	}
	s.blocks = append(s.blocks, b)
	s.committed = append(s.committed, b.Txs...)
	s.bytes += b.Size()
	s.gas += b.Header.GasUsed
	for _, pool := range s.pools {
		pool.RemoveBlock(b)
	}
	return nil
}

// commit is Commit for a substrate with a fixed modeled latency and
// the configured processor (pow, poa): seal the leader's pending set.
func (s *sealer) commit(leader int, timeMs uint64, latencyMs float64) (Commit, error) {
	b, err := s.seal(leader, timeMs, s.cfg.Proc, s.pools[leader].Pending())
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

func (s *sealer) Pending(peer int) int { return s.pools[peer].Len() }

// StateView copies the peer's replicated state: each authority holds
// (and keeps mutating) its own, so readers get an isolated snapshot.
func (s *sealer) StateView(peer int) *chain.State { return s.states[peer].Copy() }

func (s *sealer) CommittedTxs(int) []*chain.Transaction { return s.committed }

func (s *sealer) Footprint() Footprint {
	return Footprint{Blocks: len(s.blocks), Txs: len(s.committed), GasUsed: s.gas, Bytes: s.bytes}
}

// Chain implements Chainer: the sealed blocks, genesis first.
func (s *sealer) Chain(int) []*chain.Block { return s.blocks }
