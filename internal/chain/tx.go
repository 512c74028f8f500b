// Package chain is the data and the rules of the blockchain the
// decentralized experiments run on: ECDSA-signed transactions, blocks
// with Merkle transaction roots, account state with gas accounting, a
// mempool, the block rule that says what a valid block is (ApplyBlock),
// the proof-of-work puzzle with difficulty retargeting, and the chain
// file codec. It stores no blocks: the one block store is the sealing
// core in internal/ledger, which runs these rules on every replica.
//
// It stands in for the paper's private Ethereum (Geth) deployment; see
// DESIGN.md for the substitution argument. The consensus rules are a
// simplified but faithful subset: hash-below-target block sealing,
// per-byte calldata gas (the paper's ref [12] "gas conversion" making
// transaction cost track model size), and intrinsic transaction gas.
// There is no fork choice: the deterministic runner has one leader per
// commit, so no two blocks ever compete for a parent.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"unsafe"

	"waitornot/internal/keys"
)

// Hash is a 32-byte SHA-256 digest.
type Hash [32]byte

// String renders the hash as 0x-prefixed hex.
func (h Hash) String() string { return fmt.Sprintf("0x%x", h[:]) }

// Short renders the first 4 bytes for logs.
func (h Hash) Short() string { return fmt.Sprintf("0x%x", h[:4]) }

// Transaction is a signed message from an externally owned account to a
// contract (or another account, for plain value transfer).
type Transaction struct {
	// From is the sender address; it must match PubKey.
	From keys.Address
	// PubKey is the sender's encoded public key. Carrying it in the
	// transaction sidesteps signature recovery, which the stdlib's
	// ECDSA does not expose.
	PubKey []byte
	// Nonce is the sender's transaction count; it must be sequential.
	Nonce uint64
	// To is the destination account or contract. The zero address is
	// reserved for system use and is not a valid destination.
	To keys.Address
	// Value is the token amount transferred.
	Value uint64
	// GasLimit caps the gas this transaction may consume.
	GasLimit uint64
	// GasPrice is the fee per unit of gas, paid to the miner.
	GasPrice uint64
	// Payload is the contract call data (for model submissions, the
	// encoded weight blob — the dominant cost, as in the paper).
	Payload []byte
	// Sig is the ECDSA signature over the signing encoding
	// (writeSigning): everything but the signature itself.
	Sig keys.Signature

	// memo caches the transaction's signing digest and hash (a *txMemo,
	// accessed atomically). Transactions are immutable once signed, so
	// replicated execution across N peer views re-derives identical
	// digests N times without it; with it, each transaction is encoded
	// and hashed once per process. The memo records the *Transaction it
	// was computed for, so a struct copy (which drags the field along)
	// misses and recomputes — tampering with a copied transaction can
	// never reuse the original's digest. Mutating a transaction through
	// the same pointer after its first Hash/VerifySignature call is the
	// one unsupported pattern; nothing in the tree does it.
	memo unsafe.Pointer
}

// txMemo is the per-transaction memo: the signing digest (what the
// sender signed), the transaction hash (digest input + signature, the
// id everything is keyed by), the signature verdict (see
// VerifySignature), and the payload's decoding (see Decoded).
type txMemo struct {
	owner    *Transaction
	digest   [32]byte
	hash     Hash
	verified atomic.Bool
	decoded  atomic.Value
}

// memoized returns the transaction's memo, computing and caching it on
// first use. The signing encoding streams through SHA-256 once: the
// digest is read off mid-stream (Sum leaves the state intact), then the
// signature is appended for the hash — one pass over a model-size
// payload and no materialized copy of it. Safe for concurrent use: the
// computation is pure, so racing writers store identical values.
func (tx *Transaction) memoized() *txMemo {
	if m := (*txMemo)(atomic.LoadPointer(&tx.memo)); m != nil && m.owner == tx {
		return m
	}
	m := &txMemo{owner: tx}
	h := sha256.New()
	tx.writeSigning(h)
	h.Sum(m.digest[:0])
	h.Write(tx.Sig[:])
	h.Sum(m.hash[:0])
	atomic.StorePointer(&tx.memo, unsafe.Pointer(m))
	return m
}

// Decoded returns the Processor's decoding of the payload, computed by
// decode (pure, non-nil result) on first use and kept on the
// owner-checked memo: every replica executing tx shares one parse, it
// dies with the transaction, and a struct copy misses and decodes its
// own payload. Racing first calls keep one result.
func (tx *Transaction) Decoded(decode func(payload []byte) any) any {
	m := tx.memoized()
	if v := m.decoded.Load(); v != nil {
		return v
	}
	m.decoded.CompareAndSwap(nil, decode(tx.Payload))
	return m.decoded.Load()
}

// writeSigning streams the signing encoding into w (a hash.Hash, which
// returns no write errors). Hot paths hash transactions
// every round, so the encoding never materializes as a slice there.
func (tx *Transaction) writeSigning(w io.Writer) {
	w.Write(tx.From[:])
	writeBytes(w, tx.PubKey)
	writeU64(w, tx.Nonce)
	w.Write(tx.To[:])
	writeU64(w, tx.Value)
	writeU64(w, tx.GasLimit)
	writeU64(w, tx.GasPrice)
	writeBytes(w, tx.Payload)
}

// signingSize is the exact byte length writeSigning produces.
func (tx *Transaction) signingSize() int {
	return 2*keys.AddressLen + len(tx.PubKey) + len(tx.Payload) + 6*8
}

// signingDigest streams the signing encoding through SHA-256 without
// touching the memo — Sign calls it mid-mutation (From/PubKey set, Sig
// not yet), when memoizing would cache a half-built transaction.
func (tx *Transaction) signingDigest() [32]byte {
	h := sha256.New()
	tx.writeSigning(h)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// Hash returns the transaction id: the SHA-256 of the signed encoding.
// The value is memoized on first use (transactions are immutable after
// signing), so mempool ordering, Merkle roots, receipts, and per-peer
// replicated execution all share one hashing pass.
func (tx *Transaction) Hash() Hash {
	return tx.memoized().hash
}

// Sign populates From, PubKey, and Sig from the key.
func (tx *Transaction) Sign(k *keys.Key) error {
	tx.From = k.Address()
	tx.PubKey = k.PublicKey()
	sig, err := k.SignDigest(tx.signingDigest())
	if err != nil {
		return err
	}
	tx.Sig = sig
	return nil
}

// Sentinel validation errors.
var (
	ErrBadFrom   = errors.New("chain: tx sender does not match public key")
	ErrBadSig    = errors.New("chain: tx signature invalid")
	ErrBadDest   = errors.New("chain: tx destination is the zero address")
	ErrGasTooLow = errors.New("chain: tx gas limit below intrinsic gas")
)

// VerifySignature checks the sender binding and ECDSA signature, once
// per transaction value: success is recorded on the owner-checked memo,
// so the N replicas handed the same *Transaction pay for its
// cryptography once. Verification is a pure function of the bytes the
// memo hashed, so the recorded verdict is exactly as strong as
// re-verifying; a struct copy (tampered or not) has a different owner,
// misses, and runs the full check. Failures record nothing and re-run
// the check on every call (they are cold paths by construction).
func (tx *Transaction) VerifySignature() error {
	m := tx.memoized()
	if m.verified.Load() {
		return nil
	}
	if keys.PubToAddress(tx.PubKey) != tx.From {
		return ErrBadFrom
	}
	if err := keys.VerifyDigest(tx.PubKey, m.digest, tx.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSig, err)
	}
	m.verified.Store(true)
	return nil
}

// ValidateBasic performs stateless checks: signature, destination, and
// intrinsic gas affordability under the given schedule.
func (tx *Transaction) ValidateBasic(gs GasSchedule) error {
	if tx.To.IsZero() {
		return ErrBadDest
	}
	if err := tx.VerifySignature(); err != nil {
		return err
	}
	if intrinsic := gs.Intrinsic(tx.Payload); tx.GasLimit < intrinsic {
		return fmt.Errorf("%w: limit %d < intrinsic %d", ErrGasTooLow, tx.GasLimit, intrinsic)
	}
	return nil
}

// Size returns the encoded byte size of the transaction (used by
// block-capacity accounting and the throughput benchmarks).
func (tx *Transaction) Size() int {
	return tx.signingSize() + len(tx.Sig)
}

func writeU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeBytes(w io.Writer, b []byte) {
	writeU64(w, uint64(len(b)))
	w.Write(b)
}
