package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"waitornot/internal/keys"
)

// errMempoolDuplicate is returned when a transaction is already pooled.
var errMempoolDuplicate = errors.New("chain: tx already in mempool")

// Mempool holds pending transactions awaiting inclusion. It performs
// stateless validation on admission; stateful checks happen at block
// building time against the current head state.
type Mempool struct {
	gs GasSchedule

	mu  sync.Mutex
	txs map[Hash]*Transaction
}

// NewMempool builds an empty pool using the given gas schedule.
func NewMempool(gs GasSchedule) *Mempool {
	return &Mempool{gs: gs, txs: make(map[Hash]*Transaction)}
}

// Add validates and pools a transaction.
func (m *Mempool) Add(tx *Transaction) error {
	if err := tx.ValidateBasic(m.gs); err != nil {
		return err
	}
	h := tx.Hash()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.txs[h]; dup {
		return errMempoolDuplicate
	}
	m.txs[h] = tx
	return nil
}

// Len returns the number of pooled transactions.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.txs)
}

// remove drops the given transactions (by hash), typically after block
// inclusion.
func (m *Mempool) remove(hashes []Hash) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range hashes {
		delete(m.txs, h)
	}
}

// RemoveBlock drops every transaction included in b.
func (m *Mempool) RemoveBlock(b *Block) {
	hashes := make([]Hash, len(b.Txs))
	for i, tx := range b.Txs {
		hashes[i] = tx.Hash()
	}
	m.remove(hashes)
}

// Pending returns pooled transactions ordered by (gas price desc, sender,
// nonce asc, hash) — the order block building consumes them in.
func (m *Mempool) Pending() []*Transaction {
	m.mu.Lock()
	out := make([]*Transaction, 0, len(m.txs))
	for _, tx := range m.txs {
		out = append(out, tx)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.GasPrice != b.GasPrice {
			return a.GasPrice > b.GasPrice
		}
		if a.From != b.From {
			return bytes.Compare(a.From[:], b.From[:]) < 0
		}
		if a.Nonce != b.Nonce {
			return a.Nonce < b.Nonce
		}
		ah, bh := a.Hash(), b.Hash()
		return bytes.Compare(ah[:], bh[:]) < 0
	})
	return out
}

// SelectTxs is the block-building selection rule of every sealing
// substrate (the sealing core in internal/ledger): execute candidates
// in order against st (mutated in place), skipping stateless-invalid
// transactions, transactions whose worst-case gas would not fit under
// gasLimit, and stateful rejections (bad nonce, insufficient funds —
// left for a later block). It returns the included transactions and
// their total gas.
func SelectTxs(gs GasSchedule, st *State, miner keys.Address, proc Processor, candidates []*Transaction, gasLimit uint64) ([]*Transaction, uint64) {
	var (
		included []*Transaction
		gasUsed  uint64
	)
	for _, tx := range candidates {
		if err := tx.ValidateBasic(gs); err != nil {
			continue
		}
		if fit, carry := bits.Add64(gasUsed, tx.GasLimit, 0); carry != 0 || fit > gasLimit {
			continue // would not fit even in the worst case
		}
		rec, err := ApplyTx(gs, st, tx, miner, proc)
		if err != nil {
			continue // stateful rejection: leave for a later block
		}
		gasUsed += rec.GasUsed
		included = append(included, tx)
	}
	return included, gasUsed
}

// NewTx is a convenience constructor that builds and signs a contract
// call transaction with an automatically sufficient gas limit.
func NewTx(k *keys.Key, nonce uint64, to keys.Address, value uint64, payload []byte, gs GasSchedule, execBudget uint64, gasPrice uint64) (*Transaction, error) {
	tx := &Transaction{
		Nonce:    nonce,
		To:       to,
		Value:    value,
		GasLimit: gs.Intrinsic(payload) + execBudget,
		GasPrice: gasPrice,
		Payload:  payload,
	}
	if err := tx.Sign(k); err != nil {
		return nil, fmt.Errorf("chain: signing tx: %w", err)
	}
	return tx, nil
}
