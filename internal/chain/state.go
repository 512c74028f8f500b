package chain

import (
	"errors"
	"fmt"
	"math/bits"
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
// block execution (a copy published only once the block is accepted)
// rely on. A transaction does not copy it: while
// ApplyTx runs a payload, each Set and each Account access (the only
// ways a Processor writes) is journaled, and a failed execution replays
// the journal backwards — a transaction costs its writes.
//
// Storage values are interned: once a []byte is stored it is treated as
// immutable, and Copy (and the journal) alias it instead of duplicating
// the bytes. That is what keeps the per-commit copy O(keys) instead of
// O(bytes) — every committed state since a model record was written
// shares its one buffer. The aliasing contract has two rules: callers of Set
// hand over the slice and never mutate it afterwards, and callers of
// Get treat the result as read-only (decode, don't scribble). Every
// writer in the tree stores freshly encoded buffers, and every reader
// decodes.
type State struct {
	Accounts map[keys.Address]*Account
	Storage  map[keys.Address]map[string][]byte

	// journal, non-nil only while ApplyTx executes a payload, collects
	// the undo entries of the writes made so far.
	journal *[]undo
}

// undo is one journal entry: replaying it puts back what one write
// changed. An account entry has acc set (oldAcc is its value before the
// access, unless it did not exist); a newMap entry drops the contract
// map the write created; otherwise it restores key's old value, or its
// absence.
type undo struct {
	addr            keys.Address
	acc             *Account
	oldAcc          Account
	key             string
	old             []byte
	newMap, existed bool
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
	if s.journal != nil {
		*s.journal = append(*s.journal, undo{addr: addr, acc: acc, oldAcc: *acc, existed: ok})
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
	if s.journal != nil {
		if !ok {
			*s.journal = append(*s.journal, undo{addr: contract, newMap: true})
		}
		old, existed := kv[key]
		*s.journal = append(*s.journal, undo{addr: contract, key: key, old: old, existed: existed})
	}
	kv[key] = value
}

// rollback replays j backwards, undoing its writes in place: accounts
// keep their pointers, and no key or contract map the writes created
// survives.
func (s *State) rollback(j []undo) {
	for i := len(j) - 1; i >= 0; i-- {
		u := &j[i]
		switch {
		case u.acc != nil && u.existed:
			*u.acc = u.oldAcc
		case u.acc != nil:
			delete(s.Accounts, u.addr)
		case u.newMap:
			delete(s.Storage, u.addr)
		case u.existed:
			s.Storage[u.addr][u.key] = u.old
		default:
			delete(s.Storage[u.addr], u.key)
		}
	}
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
	intrinsic := tx.intrinsic(gs)
	if tx.GasLimit < intrinsic {
		return nil, fmt.Errorf("%w: intrinsic %d > limit %d", ErrGasTooLow, intrinsic, tx.GasLimit)
	}
	sender := st.Account(tx.From)
	if sender.Nonce != tx.Nonce {
		return nil, fmt.Errorf("%w: account %d, tx %d", ErrBadNonce, sender.Nonce, tx.Nonce)
	}
	// The worst case, gas limit × price + value, in full: no balance
	// covers a cost past 2⁶⁴.
	hi, gasCost := bits.Mul64(tx.GasLimit, tx.GasPrice)
	maxCost, carry := bits.Add64(gasCost, tx.Value, 0)
	if hi != 0 || carry != 0 || sender.Balance < maxCost {
		return nil, fmt.Errorf("%w: balance %d < max cost %d×%d+%d", ErrInsufficient, sender.Balance, tx.GasLimit, tx.GasPrice, tx.Value)
	}

	// Execute the payload under the journal so a revert rolls it back.
	var journal []undo
	st.journal = &journal
	execGas, logs, execErr := proc.Execute(tx, st)
	st.journal = nil
	gasUsed := intrinsic + execGas
	if gasUsed > tx.GasLimit {
		execErr = fmt.Errorf("%w: used %d", ErrGasLimitExceed, gasUsed)
		gasUsed = tx.GasLimit
	}
	if execErr != nil {
		// Revert all state changes; charge gas below on the pre-state.
		st.rollback(journal)
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
