package ledger

import (
	"fmt"

	"waitornot/internal/chain"
)

// book is the ledger every backend embeds: the one mempool, the
// committed state a commit publishes, the append-only committed list
// and the gas and byte counters. A substrate is the book plus its
// commit rule — the sealing core (sealer.go) for pow, poa and pbft,
// the batch apply (instant.go) for instant.
type book struct {
	name string
	cfg  Config
	pool *chain.Mempool
	// state is the committed state. A commit executes on a copy that
	// replaces it only once accepted, so a published state is never
	// written again and every reader may share it.
	state *chain.State
	// committed is every committed transaction in canonical order,
	// grown by append so a view handed out earlier is never rewritten.
	committed []*chain.Transaction
	bytes     int
	gas       uint64
}

// newBook opens the book under the registry name New passed down
// (fallback: the substrate's own name, for factories called directly).
func newBook(fallback string, cfg Config) book {
	return book{
		name:  cfg.nameOr(fallback),
		cfg:   cfg,
		pool:  chain.NewMempool(cfg.Chain.Gas),
		state: cfg.genesisState(),
	}
}

func (b *book) Name() string { return b.name }

// Submit validates the transaction on admission and pools it.
func (b *book) Submit(tx *chain.Transaction) error {
	if err := b.pool.Add(tx); err != nil {
		return fmt.Errorf("ledger: mempool: %w", err)
	}
	return nil
}

// publish makes next the committed state and appends txs, which
// executed on it for gas, to the committed list.
func (b *book) publish(next *chain.State, txs []*chain.Transaction, gas uint64, size int) {
	b.state = next
	b.committed = append(b.committed, txs...)
	b.gas += gas
	b.bytes += size
}

func (b *book) footprint(blocks int) Footprint {
	return Footprint{Blocks: blocks, Txs: len(b.committed), GasUsed: b.gas, Bytes: b.bytes}
}

func (b *book) Pending(int) int { return b.pool.Len() }

// StateView returns the committed state itself: a commit publishes a
// new state rather than writing this one, so every reader shares it.
func (b *book) StateView(int) *chain.State { return b.state }

func (b *book) CommittedTxs(int) []*chain.Transaction { return b.committed }
