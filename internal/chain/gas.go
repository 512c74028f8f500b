package chain

import "bytes"

// GasSchedule prices transaction execution. Values follow Ethereum's
// shape: a flat per-transaction base plus per-byte calldata pricing, so
// a transaction's cost tracks the model payload it carries — the "gas
// conversion" the paper configures so that transaction capacity exceeds
// model size.
type GasSchedule struct {
	// TxBase is charged for any transaction (Ethereum: 21000).
	TxBase uint64
	// PayloadZeroByte / PayloadNonZeroByte price calldata
	// (Ethereum post-EIP-2028: 4 / 16).
	PayloadZeroByte    uint64
	PayloadNonZeroByte uint64
	// StorePerByte prices contract storage writes.
	StorePerByte uint64
	// LogPerByte prices event log emission.
	LogPerByte uint64
	// ContractOp is the flat cost of one contract method dispatch.
	ContractOp uint64
}

// DefaultGasSchedule returns Ethereum-flavoured pricing.
func DefaultGasSchedule() GasSchedule {
	return GasSchedule{
		TxBase:             21000,
		PayloadZeroByte:    4,
		PayloadNonZeroByte: 16,
		StorePerByte:       100,
		LogPerByte:         8,
		ContractOp:         700,
	}
}

// Intrinsic returns the gas consumed before any contract execution:
// base cost plus calldata pricing of the payload. Zero bytes are counted
// vectorised and priced in one multiply — the same uint64, wrap-around
// included, as charging byte by byte (every replica prices every tx).
func (gs GasSchedule) Intrinsic(payload []byte) uint64 {
	zeros := uint64(bytes.Count(payload, []byte{0}))
	return gs.TxBase + zeros*gs.PayloadZeroByte + (uint64(len(payload))-zeros)*gs.PayloadNonZeroByte
}
