// Package contract emulates the paper's Solidity layer: a deterministic
// contract VM hosting a participant registry and the federated
// aggregation contract, with per-operation and per-byte gas metering and
// event logs.
//
// Model weights travel as transaction calldata (priced per byte by the
// chain's gas schedule, exactly the paper's ref [12] "gas conversion");
// the contract stores only digests plus transaction pointers, keeping
// world state small the way a gas-conscious Solidity contract would.
package contract

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"waitornot/internal/chain"
)

// Call-data wire format:
//
//	u16 len(method) | method | u16 argc | { u32 len(arg) | arg }*
//
// Deterministic and trivially parseable — the stand-in for the Solidity
// ABI.

// ErrBadCallData is returned for malformed payloads.
var ErrBadCallData = errors.New("contract: malformed call data")

// EncodeCall serializes a method invocation.
func EncodeCall(method string, args ...[]byte) []byte {
	n := 2 + len(method) + 2
	for _, a := range args {
		n += 4 + len(a)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(method)))
	out = append(out, method...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(args)))
	for _, a := range args {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(a)))
		out = append(out, a...)
	}
	return out
}

// DecodeCall parses a payload produced by EncodeCall.
func DecodeCall(payload []byte) (method string, args [][]byte, err error) {
	if len(payload) < 4 {
		return "", nil, fmt.Errorf("%w: too short", ErrBadCallData)
	}
	mlen := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < mlen+2 {
		return "", nil, fmt.Errorf("%w: truncated method", ErrBadCallData)
	}
	method = string(payload[:mlen])
	payload = payload[mlen:]
	argc := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	args = make([][]byte, 0, argc)
	for i := 0; i < argc; i++ {
		if len(payload) < 4 {
			return "", nil, fmt.Errorf("%w: truncated arg count", ErrBadCallData)
		}
		alen := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if len(payload) < alen {
			return "", nil, fmt.Errorf("%w: truncated arg %d", ErrBadCallData, i)
		}
		args = append(args, payload[:alen])
		payload = payload[alen:]
	}
	if len(payload) != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCallData, len(payload))
	}
	return method, args, nil
}

// Call is one transaction's decoded call data: method, arguments
// (aliasing the payload: read-only) and, for a model submission, the
// lazily computed digest of the weight blob. CallOf keeps it on the
// transaction's owner-checked memo, so a payload is parsed and its blob
// hashed once however many replicas execute it and peers read it back;
// each still runs the call on, and checks the digest against, its own
// state.
type Call struct {
	Method string
	Args   [][]byte
	err    error

	blobOnce sync.Once
	blobHash chain.Hash
}

// CallOf returns tx's decoded call and the error of a malformed payload.
func CallOf(tx *chain.Transaction) (*Call, error) {
	c := tx.Decoded(func(payload []byte) any {
		c := &Call{}
		c.Method, c.Args, c.err = DecodeCall(payload)
		return c
	}).(*Call)
	return c, c.err
}

// SubmitBlob returns the weight blob of a well-formed submit(round,
// modelID, numSamples, weights) call; ok is false for anything else.
func (c *Call) SubmitBlob() (blob []byte, ok bool) {
	if c.err != nil || c.Method != "submit" || len(c.Args) != 4 {
		return nil, false
	}
	return c.Args[3], true
}

// BlobHash is the SHA-256 of SubmitBlob — the contract's
// Submission.WeightsHash — computed on first use.
func (c *Call) BlobHash() chain.Hash {
	c.blobOnce.Do(func() {
		blob, _ := c.SubmitBlob()
		c.blobHash = sha256.Sum256(blob)
	})
	return c.blobHash
}

// U64 encodes a uint64 argument.
func U64(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

// ParseU64 decodes a uint64 argument.
func ParseU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: u64 arg has %d bytes", ErrBadCallData, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}
