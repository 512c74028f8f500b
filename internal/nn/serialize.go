package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Weight-blob wire format (little endian):
//
//	magic   [4]byte  "WFLW"
//	version uint16   1
//	count   uint32   number of float32 weights
//	data    count * 4 bytes
//	crc32   uint32   IEEE CRC of everything above
//
// This is the payload carried in on-chain model-submission transactions,
// so it must be deterministic byte-for-byte for identical weights.
const (
	weightMagic   = "WFLW"
	weightVersion = 1
	weightHeader  = 4 + 2 + 4
)

// ErrCorruptWeights is returned when a weight blob fails structural or
// checksum validation.
var ErrCorruptWeights = errors.New("nn: corrupt weight blob")

// AppendWeights appends the wire encoding of a flat weight vector to
// dst and returns the extended slice — the zero-alloc path for hot loops that reuse a
// scratch buffer (append into buf[:0] each round; the encoding only
// allocates when dst lacks capacity).
func AppendWeights(dst []byte, w []float32) []byte {
	start := len(dst)
	need := EncodedSize(len(w))
	dst = append(dst, make([]byte, need)...)
	out := dst[start:]
	copy(out, weightMagic)
	binary.LittleEndian.PutUint16(out[4:], weightVersion)
	binary.LittleEndian.PutUint32(out[6:], uint32(len(w)))
	for i, v := range w {
		binary.LittleEndian.PutUint32(out[weightHeader+4*i:], math.Float32bits(v))
	}
	sum := crc32.ChecksumIEEE(out[:weightHeader+4*len(w)])
	binary.LittleEndian.PutUint32(out[weightHeader+4*len(w):], sum)
	return dst
}

// HashWeights returns the SHA-256 of the wire encoding of w — the
// digest the aggregation contract records — without materializing the
// blob. Equivalent to sha256.Sum256(AppendWeights(nil, w)).
func HashWeights(w []float32) [32]byte {
	h := sha256.New()
	var hdr [weightHeader]byte
	copy(hdr[:], weightMagic)
	binary.LittleEndian.PutUint16(hdr[4:], weightVersion)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(w)))
	h.Write(hdr[:])
	crc := crc32.ChecksumIEEE(hdr[:])
	var chunk [4096]byte
	for off := 0; off < len(w); {
		n := 0
		for ; n < len(chunk) && off < len(w); n, off = n+4, off+1 {
			binary.LittleEndian.PutUint32(chunk[n:], math.Float32bits(w[off]))
		}
		h.Write(chunk[:n])
		crc = crc32.Update(crc, crc32.IEEETable, chunk[:n])
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	h.Write(tail[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// DecodeWeights parses a blob produced by AppendWeights, validating the
// magic, version, length, and checksum.
func DecodeWeights(b []byte) ([]float32, error) {
	if len(b) < weightHeader+4 {
		return nil, fmt.Errorf("%w: blob too short (%d bytes)", ErrCorruptWeights, len(b))
	}
	if string(b[:4]) != weightMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptWeights)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != weightVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptWeights, v)
	}
	count := int(binary.LittleEndian.Uint32(b[6:]))
	if len(b) != weightHeader+4*count+4 {
		return nil, fmt.Errorf("%w: length %d does not match count %d", ErrCorruptWeights, len(b), count)
	}
	want := binary.LittleEndian.Uint32(b[weightHeader+4*count:])
	if got := crc32.ChecksumIEEE(b[:weightHeader+4*count]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptWeights)
	}
	w := make([]float32, count)
	for i := range w {
		w[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[weightHeader+4*i:]))
	}
	return w, nil
}

// EncodedSize returns the wire size in bytes of a weight vector of n
// parameters, without encoding it.
func EncodedSize(n int) int { return weightHeader + 4*n + 4 }
