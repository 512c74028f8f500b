package contract

import (
	"errors"
	"fmt"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
)

// Well-known contract addresses (pre-deployed at genesis, the way the
// experiment's Truffle migration would have placed them).
var (
	// RegistryAddress hosts the participant registry.
	RegistryAddress = keys.Address{0x01}
	// AggregationAddress hosts the model submission/decision contract.
	AggregationAddress = keys.Address{0x02}
)

// Errors surfaced by contract execution (these revert the transaction).
var (
	ErrUnknownMethod = errors.New("contract: unknown method")
	ErrBadArgs       = errors.New("contract: bad arguments")
)

// Ctx is one contract invocation's execution context: scoped storage
// access with gas metering and event emission.
type Ctx struct {
	// State is the world state being mutated.
	State *chain.State
	// Tx is the invoking transaction.
	Tx *chain.Transaction
	// Self is the executing contract's address.
	Self keys.Address

	gs      chain.GasSchedule
	gasUsed uint64
	logs    []chain.Log
}

// GasUsed returns the execution gas consumed so far.
func (c *Ctx) GasUsed() uint64 { return c.gasUsed }

// Store writes a storage slot, charging per-byte gas.
func (c *Ctx) Store(key string, value []byte) {
	c.gasUsed += uint64(len(key)+len(value)) * c.gs.StorePerByte
	c.State.Set(c.Self, key, value)
}

// Load reads a storage slot (free, like SLOAD being much cheaper than
// SSTORE; we simplify to zero).
func (c *Ctx) Load(key string) []byte { return c.State.Get(c.Self, key) }

// Emit appends an event log, charging per-byte gas.
func (c *Ctx) Emit(topic string, data []byte) {
	c.gasUsed += uint64(len(topic)+len(data)) * c.gs.LogPerByte
	c.logs = append(c.logs, chain.Log{Contract: c.Self, Topic: topic, Data: data})
}

// Contract is a deployed contract's implementation.
type Contract interface {
	// Call dispatches one decoded method invocation. Returning an error
	// reverts the transaction's state changes (gas is still charged).
	Call(ctx *Ctx, call *Call) error
}

// VM dispatches transaction payloads to deployed contracts. It
// implements chain.Processor.
type VM struct {
	gs        chain.GasSchedule
	contracts map[keys.Address]Contract
}

var _ chain.Processor = (*VM)(nil)

// NewVM builds a VM with the standard contracts (registry +
// aggregation) pre-deployed.
func NewVM(gs chain.GasSchedule) *VM {
	vm := &VM{gs: gs, contracts: make(map[keys.Address]Contract)}
	vm.Deploy(RegistryAddress, &Registry{})
	vm.Deploy(AggregationAddress, &Aggregation{})
	return vm
}

// Deploy installs a contract at an address (genesis-time deployment).
func (vm *VM) Deploy(addr keys.Address, c Contract) { vm.contracts[addr] = c }

// Execute implements chain.Processor: transactions to non-contract
// addresses are plain transfers; transactions to contracts are decoded
// and dispatched.
func (vm *VM) Execute(tx *chain.Transaction, st *chain.State) (uint64, []chain.Log, error) {
	c, ok := vm.contracts[tx.To]
	if !ok {
		return 0, nil, nil
	}
	call, err := CallOf(tx)
	if err != nil {
		return vm.gs.ContractOp, nil, err
	}
	ctx := &Ctx{State: st, Tx: tx, Self: tx.To, gs: vm.gs, gasUsed: vm.gs.ContractOp}
	if err := c.Call(ctx, call); err != nil {
		return ctx.gasUsed, nil, fmt.Errorf("%s: %w", call.Method, err)
	}
	return ctx.gasUsed, ctx.logs, nil
}
