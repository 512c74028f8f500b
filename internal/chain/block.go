package chain

import (
	"bytes"
	"crypto/sha256"

	"waitornot/internal/keys"
)

// Header is the sealed portion of a block.
type Header struct {
	// ParentHash links to the previous block.
	ParentHash Hash
	// Number is the block height (genesis = 0).
	Number uint64
	// Time is the block timestamp in milliseconds of simulated time:
	// the commit instant the runner's logical clock hands the leader.
	Time uint64
	// Miner receives the block reward and gas fees.
	Miner keys.Address
	// Difficulty is the PoW difficulty this block was mined at (zero
	// under authority sealing, which solves no puzzle).
	Difficulty uint64
	// Nonce is the PoW solution (zero under authority sealing).
	Nonce uint64
	// TxRoot is the Merkle root of the body's transaction hashes.
	TxRoot Hash
	// GasLimit caps the total gas of the body's transactions.
	GasLimit uint64
	// GasUsed is the gas actually consumed by the body.
	GasUsed uint64
}

// encode returns the deterministic binary encoding of the header.
func (h *Header) encode() []byte {
	var buf bytes.Buffer
	buf.Grow(32*2 + 8*6 + keys.AddressLen)
	buf.Write(h.ParentHash[:])
	writeU64(&buf, h.Number)
	writeU64(&buf, h.Time)
	buf.Write(h.Miner[:])
	writeU64(&buf, h.Difficulty)
	writeU64(&buf, h.Nonce)
	buf.Write(h.TxRoot[:])
	writeU64(&buf, h.GasLimit)
	writeU64(&buf, h.GasUsed)
	return buf.Bytes()
}

// Hash returns the block id: the SHA-256 of the header encoding. The
// PoW validity check applies to this hash.
func (h *Header) Hash() Hash { return sha256.Sum256(h.encode()) }

// Block is a header plus its transaction body.
type Block struct {
	Header Header
	Txs    []*Transaction
}

// Hash returns the block id.
func (b *Block) Hash() Hash { return b.Header.Hash() }

// Size returns the approximate encoded size of the block in bytes.
func (b *Block) Size() int {
	n := len(b.Header.encode())
	for _, tx := range b.Txs {
		n += tx.Size()
	}
	return n
}

// MerkleRoot computes the Merkle root of the transaction hashes using
// SHA-256, duplicating the last node at odd levels (Bitcoin's rule). An
// empty body hashes to the zero hash.
func MerkleRoot(txs []*Transaction) Hash {
	if len(txs) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.Hash()
	}
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Hash, len(level)/2)
		for i := range next {
			var buf [64]byte
			copy(buf[:32], level[2*i][:])
			copy(buf[32:], level[2*i+1][:])
			next[i] = sha256.Sum256(buf[:])
		}
		level = next
	}
	return level[0]
}
