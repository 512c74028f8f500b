// Fuzz targets for the chain's attacker-facing surfaces: the
// versioned binary persistence codec (arbitrary bytes from disk) and
// the mempool (arbitrary transaction submissions from peers). Run
// continuously with `go test -fuzz`, or as the short smoke
// `make fuzz-smoke` that `make ci` gates on.
package chain

import (
	"bytes"
	"reflect"
	"testing"

	"waitornot/internal/keys"
)

// corpusChainBytes encodes a small mined chain (genesis + one block
// with a transaction) as the happy-path seed for the codec fuzzer.
func corpusChainBytes(tb testing.TB) []byte {
	tb.Helper()
	ks := testKeys(2)
	c := newChain(testConfig(), ks)
	tx, err := NewTx(ks[0], 0, ks[1].Address(), 5, []byte{1, 0, 2, 0xff}, DefaultGasSchedule(), 1_000_000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.add(c.mine(ks[0].Address(), []*Transaction{tx}, 1500)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChain(&buf, c.blocks); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzChainCodec: ReadChain on arbitrary bytes must either reject with
// an error or produce a value that survives a Write/Read round trip
// unchanged — and it must never panic, whatever is on disk.
func FuzzChainCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a chain"))
	f.Add(corpusChainBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := ReadChain(bytes.NewReader(data))
		if err != nil {
			return // clean rejection is a pass
		}
		var out bytes.Buffer
		if err := WriteChain(&out, blocks); err != nil {
			t.Fatalf("decoded chain failed to re-encode: %v", err)
		}
		back, err := ReadChain(&out)
		if err != nil {
			t.Fatalf("re-encoded chain failed to decode: %v", err)
		}
		if len(back) != len(blocks) {
			t.Fatalf("round trip changed length: %d -> %d", len(blocks), len(back))
		}
		for i := range blocks {
			if blocks[i] == nil || back[i] == nil {
				if blocks[i] != back[i] {
					t.Fatalf("block %d: nil-ness changed in round trip", i)
				}
				continue
			}
			if blocks[i].Hash() != back[i].Hash() {
				t.Fatalf("block %d: hash changed in round trip", i)
			}
			if !reflect.DeepEqual(blocks[i], back[i]) {
				t.Fatalf("block %d: contents changed in round trip", i)
			}
		}
	})
}

// FuzzMempoolSubmit feeds the mempool an arbitrary mix of honest and
// corrupted transactions and checks its invariants: no panics, Len
// agrees with Pending, no duplicate hashes are pooled, and Pending is
// always in block-building order (gas price desc, then sender, nonce,
// hash) whatever was submitted.
func FuzzMempoolSubmit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add(append(make([]byte, 33), 0xff, 0, 0, 0x80, 0, 1)) // zero runs: the intrinsic-gas case
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := DefaultGasSchedule()
		// Admission prices every payload; the price must be the byte
		// loop's, under the real schedule and one that wraps uint64.
		wrap := GasSchedule{TxBase: ^uint64(0) - 3, PayloadZeroByte: 1<<63 + 4, PayloadNonZeroByte: ^uint64(0) / 3}
		for _, s := range []GasSchedule{gs, wrap} {
			if got, want := s.Intrinsic(data), intrinsicByteLoop(s, data); got != want {
				t.Fatalf("Intrinsic = %d, byte loop = %d (schedule %+v)", got, want, s)
			}
		}
		m := NewMempool(gs)
		senders := []*keys.Key{
			keys.GenerateDeterministic(1000),
			keys.GenerateDeterministic(1001),
			keys.GenerateDeterministic(1002),
		}
		accepted := 0
		// Each 4-byte chunk of fuzz input describes one submission:
		// sender, nonce, gas price, and a corruption selector, with the
		// remainder of the chunk seeding the payload.
		for off := 0; off+4 <= len(data); off += 4 {
			k := senders[int(data[off])%len(senders)]
			nonce := uint64(data[off+1] % 8)
			gasPrice := uint64(data[off+2])
			payload := data[off : off+4]
			tx, err := NewTx(k, nonce, senders[(int(data[off])+1)%len(senders)].Address(), 0, payload, gs, 10_000, gasPrice)
			if err != nil {
				t.Fatalf("signing: %v", err)
			}
			// A slice of submissions arrives corrupted, as from a
			// byzantine peer: Add must reject them without panicking.
			switch data[off+3] % 6 {
			case 1:
				tx.GasLimit = uint64(data[off+3]) // below intrinsic
			case 2:
				tx.To = keys.Address{} // reserved destination
			case 3:
				tx.Sig[0] ^= 0xff // broken signature
			case 4:
				tx.Payload = append([]byte(nil), tx.Payload...)
				tx.Payload = append(tx.Payload, 0xee) // payload not covered by sig
			}
			if err := m.Add(tx); err == nil {
				accepted++
			}
		}
		pending := m.Pending()
		if len(pending) != m.Len() || len(pending) != accepted {
			t.Fatalf("pool books disagree: %d pending, Len %d, %d accepted", len(pending), m.Len(), accepted)
		}
		seen := map[Hash]bool{}
		for i, tx := range pending {
			h := tx.Hash()
			if seen[h] {
				t.Fatalf("duplicate tx %d pooled: %s", i, h)
			}
			seen[h] = true
			if err := tx.ValidateBasic(gs); err != nil {
				t.Fatalf("pooled tx %d fails stateless validation: %v", i, err)
			}
			if i == 0 {
				continue
			}
			// The gas-order invariant: Pending is sorted by (gas price
			// desc, sender, nonce asc, hash) — the order block building
			// consumes, so a mis-sort would silently misprice blocks.
			a, b := pending[i-1], tx
			switch {
			case a.GasPrice != b.GasPrice:
				if a.GasPrice < b.GasPrice {
					t.Fatalf("pending[%d..%d] violates gas-price order: %d < %d", i-1, i, a.GasPrice, b.GasPrice)
				}
			case a.From != b.From:
				if bytes.Compare(a.From[:], b.From[:]) > 0 {
					t.Fatalf("pending[%d..%d] violates sender order", i-1, i)
				}
			case a.Nonce != b.Nonce:
				if a.Nonce > b.Nonce {
					t.Fatalf("pending[%d..%d] violates nonce order", i-1, i)
				}
			default:
				ah, bh := a.Hash(), b.Hash()
				if bytes.Compare(ah[:], bh[:]) > 0 {
					t.Fatalf("pending[%d..%d] violates hash tiebreak", i-1, i)
				}
			}
		}
	})
}
