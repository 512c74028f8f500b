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
// included, as charging byte by byte. Admission and execution price a
// signed transaction from its memo's count instead (Transaction.intrinsic).
func (gs GasSchedule) Intrinsic(payload []byte) uint64 {
	return gs.price(uint64(len(payload)), uint64(bytes.Count(payload, []byte{0})))
}

// price is the intrinsic gas of an n-byte payload holding zeros zero bytes.
func (gs GasSchedule) price(n, zeros uint64) uint64 {
	return gs.TxBase + zeros*gs.PayloadZeroByte + (n-zeros)*gs.PayloadNonZeroByte
}
