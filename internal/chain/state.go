package chain

import (
	"errors"
	"fmt"
	"sort"

	"waitornot/internal/keys"
)

// Account is one externally owned account's mutable state.
type Account struct {
	Nonce   uint64
	Balance uint64
}

// State is the world state: account balances/nonces plus per-contract
// key-value storage. It is a plain value store — copying it snapshots
// the world, which block building (a scratch copy to select on) and
// per-transaction revert semantics rely on.
//
// Storage values are interned: once a []byte is stored it is treated as
// immutable, and Copy aliases it instead of duplicating the bytes. That
// is what keeps per-transaction revert snapshots and per-peer StateView
// copies O(keys) instead of O(bytes) — N peer replicas of a committed
// model record share one buffer. The aliasing contract has two rules:
// callers of Set hand over the slice and never mutate it afterwards,
// and callers of Get treat the result as read-only (decode, don't
// scribble). Every writer in the tree stores freshly encoded buffers,
// and every reader decodes.
type State struct {
	Accounts map[keys.Address]*Account
	Storage  map[keys.Address]map[string][]byte
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Accounts: make(map[keys.Address]*Account),
		Storage:  make(map[keys.Address]map[string][]byte),
	}
}

// Copy snapshots the state: accounts are duplicated (they mutate in
// place), storage maps are duplicated, and storage values are aliased —
// immutable per the interning contract above, so sharing the buffer is
// observably identical to copying it and skips the dominant allocation
// of the ledger hot path.
func (s *State) Copy() *State {
	out := NewState()
	for a, acc := range s.Accounts {
		cp := *acc
		out.Accounts[a] = &cp
	}
	for c, kv := range s.Storage {
		m := make(map[string][]byte, len(kv))
		for k, v := range kv {
			m[k] = v
		}
		out.Storage[c] = m
	}
	return out
}

// Account returns the account at addr, creating it lazily.
func (s *State) Account(addr keys.Address) *Account {
	acc, ok := s.Accounts[addr]
	if !ok {
		acc = &Account{}
		s.Accounts[addr] = acc
	}
	return acc
}

// Get reads a contract storage slot (nil if absent).
func (s *State) Get(contract keys.Address, key string) []byte {
	return s.Storage[contract][key]
}

// Set writes a contract storage slot.
func (s *State) Set(contract keys.Address, key string, value []byte) {
	kv, ok := s.Storage[contract]
	if !ok {
		kv = make(map[string][]byte)
		s.Storage[contract] = kv
	}
	kv[key] = value
}

// Keys returns a contract's storage keys in sorted order (deterministic
// iteration for contract list operations).
func (s *State) Keys(contract keys.Address) []string {
	kv := s.Storage[contract]
	out := make([]string, 0, len(kv))
	for k := range kv {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Log is one contract event emitted during execution.
type Log struct {
	Contract keys.Address
	Topic    string
	Data     []byte
}

// Receipt records one transaction's execution outcome.
type Receipt struct {
	TxHash  Hash
	GasUsed uint64
	// Err is the revert reason ("" on success). Reverted transactions
	// are still included and charged.
	Err  string
	Logs []Log
}

// Processor executes contract payloads. The contract VM (internal/
// contract) implements it; the chain stays ignorant of contract
// semantics.
type Processor interface {
	// Execute runs tx's payload against st, returning execution gas
	// (beyond intrinsic) and any logs. A returned error reverts state
	// changes but the transaction is still mined and charged.
	Execute(tx *Transaction, st *State) (gasUsed uint64, logs []Log, err error)
}

// NopProcessor ignores payloads (plain value-transfer chain).
type NopProcessor struct{}

// Execute implements Processor.
func (NopProcessor) Execute(*Transaction, *State) (uint64, []Log, error) { return 0, nil, nil }

// Execution errors that invalidate a transaction entirely (it cannot be
// included in a block).
var (
	ErrBadNonce        = errors.New("chain: tx nonce does not match account")
	ErrInsufficient    = errors.New("chain: insufficient balance for gas + value")
	ErrGasLimitExceed  = errors.New("chain: tx exceeds its gas limit")
	ErrBlockGasExceed  = errors.New("chain: block gas limit exceeded")
	ErrBadParent       = errors.New("chain: block does not link to its parent")
	ErrInvalidPoW      = errors.New("chain: proof of work invalid")
	ErrWrongDifficulty = errors.New("chain: difficulty does not match retarget rule")
	ErrBadTxRoot       = errors.New("chain: tx merkle root mismatch")
	ErrBadGasUsed      = errors.New("chain: declared gas used mismatch")
	ErrBadNumber       = errors.New("chain: block number not parent+1")
	ErrBadTime         = errors.New("chain: block time before parent")
)

// ApplyTx executes one transaction against st (mutating it), paying the
// miner. It returns the receipt, or an error if the transaction is
// inadmissible (bad nonce/funds/gas), in which case st is unchanged.
func ApplyTx(gs GasSchedule, st *State, tx *Transaction, miner keys.Address, proc Processor) (*Receipt, error) {
	intrinsic := gs.Intrinsic(tx.Payload)
	if tx.GasLimit < intrinsic {
		return nil, fmt.Errorf("%w: intrinsic %d > limit %d", ErrGasTooLow, intrinsic, tx.GasLimit)
	}
	sender := st.Account(tx.From)
	if sender.Nonce != tx.Nonce {
		return nil, fmt.Errorf("%w: account %d, tx %d", ErrBadNonce, sender.Nonce, tx.Nonce)
	}
	maxCost := tx.GasLimit*tx.GasPrice + tx.Value
	if sender.Balance < maxCost {
		return nil, fmt.Errorf("%w: balance %d < max cost %d", ErrInsufficient, sender.Balance, maxCost)
	}

	// Execute the payload against a snapshot so reverts roll back.
	snapshot := st.Copy()
	execGas, logs, execErr := proc.Execute(tx, st)
	gasUsed := intrinsic + execGas
	if gasUsed > tx.GasLimit {
		execErr = fmt.Errorf("%w: used %d", ErrGasLimitExceed, gasUsed)
		gasUsed = tx.GasLimit
	}
	if execErr != nil {
		// Revert all state changes; charge gas below on the snapshot.
		*st = *snapshot
		sender = st.Account(tx.From)
		logs = nil
	}

	fee := gasUsed * tx.GasPrice
	sender.Balance -= fee
	sender.Nonce++
	if execErr == nil && tx.Value > 0 {
		sender.Balance -= tx.Value
		st.Account(tx.To).Balance += tx.Value
	}
	st.Account(miner).Balance += fee

	rec := &Receipt{TxHash: tx.Hash(), GasUsed: gasUsed, Logs: logs}
	if execErr != nil {
		rec.Err = execErr.Error()
	}
	return rec, nil
}
