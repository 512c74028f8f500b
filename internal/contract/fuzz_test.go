package contract

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeCall: DecodeCall on arbitrary bytes — calldata from any
// peer — never panics, and any payload it accepts is exactly
// EncodeCall's encoding of what it decoded.
func FuzzDecodeCall(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff, 0xff, 0, 0})
	f.Add(EncodeCall("submit", U64(1), U64(2), U64(3), []byte("weights")))
	f.Add(RecordCallData(4, "A+B", [32]byte{9}, 2))
	// One argument of 2^31 bytes: a negative int length on 32-bit.
	f.Add([]byte{1, 0, 'm', 1, 0, 0, 0, 0, 0x80, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		method, args, err := DecodeCall(payload)
		if err != nil {
			return
		}
		if back := EncodeCall(method, args...); !bytes.Equal(back, payload) {
			t.Fatalf("re-encoding %q with %d args gives %x, decoded %x", method, len(args), back, payload)
		}
	})
}

// TestDecodeCallHostileArgCountAllocatesLittle: an argument count the
// payload cannot hold is not preallocated — six bytes claiming 65,535
// arguments once reserved about 1.5 MB of slice headers.
func TestDecodeCallHostileArgCountAllocatesLittle(t *testing.T) {
	payload := []byte{0, 0, 0xff, 0xff, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := DecodeCall(payload); err == nil {
		t.Fatal("truncated call decoded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("decoding a 6-byte payload allocated %d bytes", got)
	}
}
