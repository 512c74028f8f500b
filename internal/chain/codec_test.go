package chain

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"waitornot/internal/nn"
)

func TestWriteReadChainRoundTrip(t *testing.T) {
	c, ks := newTestChain(t)
	for i := 0; i < 3; i++ {
		tx := signedTx(t, ks[0], uint64(i), ks[1].Address(), []byte{byte(i)})
		b := mineNext(t, c, ks[2], []*Transaction{tx})
		if err := c.add(b); err != nil {
			t.Fatal(err)
		}
	}
	blocks := c.blocks

	var buf bytes.Buffer
	if err := WriteChain(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	for i := range got {
		if got[i].Hash() != blocks[i].Hash() {
			t.Fatalf("block %d hash mismatch after round trip", i)
		}
		for j, tx := range got[i].Txs {
			if err := tx.VerifySignature(); err != nil {
				t.Fatalf("block %d tx %d signature broken after round trip: %v", i, j, err)
			}
		}
	}

	// A decoded chain replays on a fresh instance.
	c2 := newChain(testConfig(), ks)
	if got[0].Hash() != c2.head().Hash() {
		t.Fatal("decoded genesis differs")
	}
	for _, b := range got[1:] {
		if err := c2.add(b); err != nil {
			t.Fatalf("replaying decoded chain: %v", err)
		}
	}
	if c2.head().Hash() != c.head().Hash() {
		t.Fatal("replayed head differs")
	}
}

func TestReadChainRejectsGarbage(t *testing.T) {
	if _, err := ReadChain(bytes.NewReader([]byte("not a chain"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestChainCodecModelPayloadRoundTrip is the codec's property test at
// model scale: blocks whose transaction payloads are encoded float32
// weight vectors — including NaN, infinities, signed zero, and
// denormals — must survive write/read with byte-identical payloads and
// bit-exact weights, plus a second encode that reproduces the first
// stream byte-for-byte (the format is canonical).
func TestChainCodecModelPayloadRoundTrip(t *testing.T) {
	c, ks := newTestChain(t)
	vectors := [][]float32{
		nil,
		{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())},
		{math.SmallestNonzeroFloat32, -math.MaxFloat32, 1.5, -2.25},
	}
	for i, w := range vectors {
		tx := signedTx(t, ks[0], uint64(i), ks[1].Address(), nn.AppendWeights(nil, w))
		b := mineNext(t, c, ks[2], []*Transaction{tx})
		if err := c.add(b); err != nil {
			t.Fatal(err)
		}
	}
	blocks := c.blocks

	var buf bytes.Buffer
	if err := WriteChain(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := ReadChain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for bi, w := range vectors {
		payload := got[bi+1].Txs[0].Payload // block 0 is genesis
		if !bytes.Equal(payload, nn.AppendWeights(nil, w)) {
			t.Fatalf("block %d: payload bytes changed in round trip", bi+1)
		}
		dec, err := nn.DecodeWeights(payload)
		if err != nil {
			t.Fatalf("block %d: decoded payload corrupt: %v", bi+1, err)
		}
		if len(dec) != len(w) {
			t.Fatalf("block %d: %d weights, want %d", bi+1, len(dec), len(w))
		}
		for j := range w {
			if math.Float32bits(dec[j]) != math.Float32bits(w[j]) {
				t.Fatalf("block %d weight %d: bits %x -> %x", bi+1, j,
					math.Float32bits(w[j]), math.Float32bits(dec[j]))
			}
		}
	}
	var again bytes.Buffer
	if err := WriteChain(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), first) {
		t.Fatal("re-encoding the decoded chain produced different bytes")
	}
}

// TestReadChainCorruptStreams sweeps the decoder's failure surface:
// every truncation of a valid stream, a wrong version byte, a bad
// block marker, and length prefixes past the codec cap must all be
// rejected with ErrCorruptChain-wrapped errors — never a panic, never
// a silent partial chain.
func TestReadChainCorruptStreams(t *testing.T) {
	c, ks := newTestChain(t)
	tx := signedTx(t, ks[0], 0, ks[1].Address(), []byte{1, 2, 3})
	b := mineNext(t, c, ks[2], []*Transaction{tx})
	if err := c.add(b); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChain(&buf, c.blocks); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Every proper prefix, the empty stream included, must fail cleanly.
	for n := 0; n < len(valid); n++ {
		if _, err := ReadChain(bytes.NewReader(valid[:n])); !errors.Is(err, ErrCorruptChain) {
			t.Fatalf("truncation at %d of %d bytes: err = %v, want ErrCorruptChain", n, len(valid), err)
		}
	}

	mutate := func(name string, build func() []byte) {
		if _, err := ReadChain(bytes.NewReader(build())); !errors.Is(err, ErrCorruptChain) {
			t.Fatalf("%s: err = %v, want ErrCorruptChain", name, err)
		}
	}
	mutate("valid gob bytes", func() []byte {
		// The opening of a []*Block stream as the gob encoder wrote it (the
		// format before the WCHN codec): well-formed, but not ours.
		return []byte{
			0x0d, 0xff, 0x8d, 0x02, 0x01, 0x02, 0xff, 0x8e, 0x00, 0x01, 0xff, 0x80, 0x00, 0x00, 0x20, 0x7f,
			0x03, 0x01, 0x02, 0xff, 0x80, 0x00, 0x01, 0x02, 0x01, 0x06, 'H', 'e', 'a', 'd', 'e', 'r',
			0x01, 0xff, 0x82, 0x00, 0x01, 0x03, 'T', 'x', 's', 0x01, 0xff, 0x8c, 0x00, 0x00, 0x00,
		}
	})
	mutate("wrong version", func() []byte {
		s := append([]byte(nil), valid...)
		s[len(chainMagic)] = chainVersion + 1
		return s
	})
	mutate("bad block marker", func() []byte {
		// magic | version | count=1 | marker=2
		return append(append([]byte(nil), valid[:len(chainMagic)+1]...), 1, 0, 0, 0, 2)
	})
	mutate("block count past cap", func() []byte {
		return append(append([]byte(nil), valid[:len(chainMagic)+1]...), 0xff, 0xff, 0xff, 0xff)
	})
	mutate("length prefix past cap", func() []byte {
		// A nil-block placeholder, then a block whose first tx declares
		// an absurd pubkey length right after the fixed header fields.
		s := append(append([]byte(nil), valid[:len(chainMagic)+1]...), 2, 0, 0, 0, 0, 1)
		s = append(s, make([]byte, 32+8+8+20+8+8+32+8+8)...) // header
		s = append(s, 1, 0, 0, 0)                            // ntxs = 1
		s = append(s, make([]byte, 20)...)                   // from
		s = append(s, 0xff, 0xff, 0xff, 0xff)                // pubkey len
		return s
	})
}
