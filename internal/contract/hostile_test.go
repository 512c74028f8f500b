package contract

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"waitornot/internal/chain"
	"waitornot/internal/keys"
	"waitornot/internal/nn"
)

// lengthField is a little-endian length prefix of an encoding: at off,
// width bytes wide.
type lengthField struct{ off, width int }

func (f lengthField) get(b []byte) uint64 {
	var v [8]byte
	copy(v[:], b[f.off:f.off+f.width])
	return binary.LittleEndian.Uint64(v[:])
}

// set writes v truncated to the field's width into a copy of b.
func (f lengthField) set(b []byte, v uint64) []byte {
	out := bytes.Clone(b)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	copy(out[f.off:f.off+f.width], w[:f.width])
	return out
}

// TestDecodersRefuseHostileLengths sweeps every binary decoder of the
// ledger path over one valid encoding each: every strict prefix, and
// every length field set to 0, len-1, len+1, 2^31-1, 2^32 and 2^64-1
// (truncated to the field's width), must return an error and never
// panic. A mutation that leaves the encoding unchanged is skipped. It
// runs on GOARCH=386 too (make generic-kernels), where an int is 32
// bits.
func TestDecodersRefuseHostileLengths(t *testing.T) {
	weights := nn.AppendWeights(nil, []float32{1, -2, 3.5})
	submitCall := nn.AppendWeights(SubmitCallHead(4, 1, 60, nn.EncodedSize(3)), []float32{1, -2, 3.5})
	recordCall := RecordCallData(4, "A,B", chain.Hash{7}, 2)
	sub := (&Submission{Round: 4, Sender: keys.Address{1}, ModelID: 1, NumSamples: 60,
		WeightsHash: chain.Hash{2}, PayloadSize: 300, TxHash: chain.Hash{3}}).encode()
	dec := (&Decision{Round: 4, Peer: keys.Address{1}, Combo: "A,B", ResultHash: chain.Hash{7}, NumIncluded: 2}).encode()
	var stream bytes.Buffer
	tx := func(n byte) *chain.Transaction {
		return &chain.Transaction{From: keys.Address{n}, PubKey: []byte{n, 1, 2}, Nonce: 1, To: keys.Address{9}, Payload: recordCall}
	}
	blocks := []*chain.Block{{Header: chain.Header{Number: 0}}, nil, {Header: chain.Header{Number: 1}, Txs: []*chain.Transaction{tx(1), tx(2)}}}
	if err := chain.WriteChain(&stream, blocks); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		valid  []byte
		fields []lengthField
		decode func([]byte) error
	}{
		{"nn.DecodeWeights", weights, []lengthField{{6, 4}}, func(b []byte) error {
			_, err := nn.DecodeWeights(b)
			return err
		}},
		{"DecodeCall submit", submitCall, callFields(submitCall), decodeCall},
		{"DecodeCall record", recordCall, callFields(recordCall), decodeCall},
		{"decodeSubmission", sub, nil, func(b []byte) error {
			_, err := decodeSubmission(b)
			return err
		}},
		{"decodeDecision", dec, []lengthField{{8 + keys.AddressLen, 8}}, func(b []byte) error {
			_, err := decodeDecision(b)
			return err
		}},
		{"chain.ReadChain", stream.Bytes(), chainFields(stream.Bytes()), func(b []byte) error {
			_, err := chain.ReadChain(bytes.NewReader(b))
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.valid); err != nil {
				t.Fatalf("the valid encoding fails: %v", err)
			}
			refuse := func(what string, b []byte) {
				t.Helper()
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic %v", what, r)
					}
				}()
				if c.decode(b) == nil {
					t.Fatalf("%s: decoded without an error", what)
				}
			}
			for n := range c.valid {
				refuse(fmt.Sprintf("prefix of %d bytes", n), c.valid[:n])
			}
			for _, f := range c.fields {
				l := f.get(c.valid)
				for _, v := range []uint64{0, l - 1, l + 1, math.MaxInt32, 1 << 32, math.MaxUint64} {
					b := f.set(c.valid, v)
					if bytes.Equal(b, c.valid) {
						continue
					}
					refuse(fmt.Sprintf("length at %d (%d) set to %d", f.off, l, v), b)
				}
			}
		})
	}
}

func decodeCall(b []byte) error {
	_, _, err := DecodeCall(b)
	return err
}

// callFields are the method length, the argument count and each
// argument's length of a call encoding.
func callFields(p []byte) []lengthField {
	mlen := int(binary.LittleEndian.Uint16(p))
	fields := []lengthField{{0, 2}, {2 + mlen, 2}}
	off := 4 + mlen
	for i := 0; i < int(binary.LittleEndian.Uint16(p[2+mlen:])); i++ {
		fields = append(fields, lengthField{off, 4})
		off += 4 + int(binary.LittleEndian.Uint32(p[off:]))
	}
	return fields
}

// chainFields are the block count, each block's transaction count and
// each transaction's public-key and payload lengths of a chain stream.
func chainFields(s []byte) []lengthField {
	const header = 32 + 8 + 8 + keys.AddressLen + 8 + 8 + 32 + 8 + 8
	fields := []lengthField{{5, 4}}
	off := 9
	for blocks := binary.LittleEndian.Uint32(s[5:]); blocks > 0; blocks-- {
		if s[off] == 0 {
			off++
			continue
		}
		off += 1 + header
		fields = append(fields, lengthField{off, 4})
		ntxs := binary.LittleEndian.Uint32(s[off:])
		off += 4
		for ; ntxs > 0; ntxs-- {
			off += keys.AddressLen
			fields = append(fields, lengthField{off, 4})
			off += 4 + int(binary.LittleEndian.Uint32(s[off:])) + 4*8 + keys.AddressLen
			fields = append(fields, lengthField{off, 4})
			off += 4 + int(binary.LittleEndian.Uint32(s[off:])) + len(keys.Signature{})
		}
	}
	if off != len(s) {
		panic(fmt.Sprintf("chainFields walked %d of %d bytes", off, len(s)))
	}
	return fields
}
