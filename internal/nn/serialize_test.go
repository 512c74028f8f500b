package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"waitornot/internal/xrand"
)

// specialFloats is every awkward float32 the codec must carry
// bit-exactly: signed zeros, infinities, NaN, denormals, and the
// extremes of the normal range.
func specialFloats() []float32 {
	return []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
		1, -1, 0.1, -0.1,
	}
}

// TestWeightsRoundTripExact is the codec's property test: random
// vectors of every size class — plus the special values above — must
// survive encode/decode with exact float32 equality (bit-for-bit, so
// NaN payloads and -0 signs count), appending into a reused scratch
// buffer must agree with a fresh encoding byte-for-byte, and
// HashWeights must equal hashing the materialized encoding.
func TestWeightsRoundTripExact(t *testing.T) {
	rng := xrand.New(7)
	cases := [][]float32{nil, {}, specialFloats()}
	for _, n := range []int{1, 3, 64, 1023, 4096, 61670} {
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		// Sprinkle specials through the random vector too.
		for i, v := range specialFloats() {
			w[(i*997)%n] = v
		}
		cases = append(cases, w)
	}
	scratch := make([]byte, 0, 8)
	for ci, w := range cases {
		blob := AppendWeights(nil, w)
		if len(blob) != EncodedSize(len(w)) {
			t.Fatalf("case %d: encoded %d bytes, EncodedSize says %d", ci, len(blob), EncodedSize(len(w)))
		}
		scratch = AppendWeights(scratch[:0], w)
		if !bytes.Equal(scratch, blob) {
			t.Fatalf("case %d: AppendWeights into a reused buffer disagrees with a fresh encoding", ci)
		}
		if got, want := HashWeights(w), sha256.Sum256(blob); got != want {
			t.Fatalf("case %d: HashWeights diverges from hashing the encoding", ci)
		}
		got, err := DecodeWeights(blob)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(got) != len(w) {
			t.Fatalf("case %d: decoded %d weights, want %d", ci, len(got), len(w))
		}
		for i := range w {
			if math.Float32bits(got[i]) != math.Float32bits(w[i]) {
				t.Fatalf("case %d: weight %d changed: %x -> %x", ci, i,
					math.Float32bits(w[i]), math.Float32bits(got[i]))
			}
		}
	}
}

// FuzzPayloadCodec: DecodeWeights on arbitrary bytes must either
// reject with ErrCorruptWeights or yield a vector whose re-encoding is
// byte-identical to the input (the format is canonical: header, count,
// data, checksum leave no slack), whose streamed hash matches hashing
// those bytes — and it must never panic.
func FuzzPayloadCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("WFLWjunk"))
	f.Add(AppendWeights(nil, nil))
	f.Add(AppendWeights(nil, specialFloats()))
	// 14 bytes claiming 2^30 weights under a valid checksum: 4*count
	// wraps to 0 in a 32-bit int, which once passed the length check.
	hostile := AppendWeights(nil, nil)[:weightHeader]
	binary.LittleEndian.PutUint32(hostile[6:], 1<<30)
	f.Add(binary.LittleEndian.AppendUint32(hostile, crc32.ChecksumIEEE(hostile)))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWeights(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptWeights) {
				t.Fatalf("rejection not wrapped in ErrCorruptWeights: %v", err)
			}
			return
		}
		re := AppendWeights(nil, w)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d in, %d out", len(data), len(re))
		}
		if got, want := HashWeights(w), sha256.Sum256(data); got != want {
			t.Fatal("HashWeights diverges from hashing the accepted blob")
		}
		back, err := DecodeWeights(re)
		if err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		for i := range w {
			if math.Float32bits(back[i]) != math.Float32bits(w[i]) {
				t.Fatalf("weight %d changed in round trip", i)
			}
		}
	})
}
