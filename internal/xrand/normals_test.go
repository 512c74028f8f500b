package xrand

import (
	"math"
	"runtime"
	"testing"
)

// hasAVX512 is the probe's answer, read before any test flips avx512.
var hasAVX512 = avx512

// bodies names Normals' bodies by the value of avx512 that selects
// them; "sse2" is the NormFloat64 loop on every GOARCH but amd64.
var bodies = []struct {
	name string
	wide bool
}{{"sse2", false}, {"avx512", true}}

// useBody selects one body for the rest of tb, and the probe's choice
// again at its cleanup. Where the probe found no AVX-512F and DQ, the
// avx512 body skips.
func useBody(tb testing.TB, wide bool) {
	if wide && !hasAVX512 {
		tb.Skipf("no AVX-512 body on %s/%s: the CPU lacks AVX-512F, AVX-512DQ or their OS state, or the build has only the Go loop", runtime.GOOS, runtime.GOARCH)
	}
	avx512 = wide
	tb.Cleanup(func() { avx512 = hasAVX512 })
}

// checkNormals fills a buffer of n with r.Normals and holds every
// element's bits, and r's end value, to n NormFloat64 calls from a copy
// of r.
func checkNormals(t testing.TB, r *RNG, n int) {
	t.Helper()
	ref := *r
	got := make([]float64, n)
	r.Normals(got)
	for i, g := range got {
		if want := ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("Normals(len %d)[%d] = %v (%#x), NormFloat64 gives %v (%#x)",
				n, i, g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
	if *r != ref {
		t.Fatalf("after Normals(len %d) the RNG is %+v, after %d NormFloat64 calls %+v", n, *r, n, ref)
	}
}

// TestNormalsBitEqual: Normals is len(dst) NormFloat64 calls, bit for
// bit, on each body, over 10^7 normals from four seeds: every length
// around one group of eight pairs and around the 128-wide chunks its
// callers use, each entered with and without a pending spare (the odd
// lengths leave one for the next call).
func TestNormalsBitEqual(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 16, 17, 33, 127, 128, 129, 1024}
	const perStream = 10_000_000 / 8
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			useBody(t, body.wide)
			for _, seed := range []uint64{1, 7, 2024, 0x9e3779b97f4a7c15} {
				for _, pending := range []bool{false, true} {
					r := New(seed)
					if pending {
						r.NormFloat64()
					}
					for drawn := 0; drawn < perStream; {
						for _, n := range lengths {
							checkNormals(t, r, n)
							drawn += n
						}
					}
				}
			}
		})
	}
}

// FuzzNormalsBitEqual: from any start state, with or without a pending
// spare, Normals of any length up to 300 is that many NormFloat64 calls
// on each body.
func FuzzNormalsBitEqual(f *testing.F) {
	f.Add(uint64(1), false, uint16(0))
	f.Add(uint64(7), true, uint16(129))
	f.Add(uint64(0x9e3779b97f4a7c15), true, uint16(300))
	f.Fuzz(func(t *testing.T, state uint64, spare bool, n uint16) {
		defer func() { avx512 = hasAVX512 }()
		for _, body := range bodies {
			if body.wide && !hasAVX512 {
				continue // no AVX-512 body here; TestNormalsBitEqual logs the skip
			}
			avx512 = body.wide
			r := New(state)
			if spare {
				r.NormFloat64()
			}
			checkNormals(t, r, int(n%301))
		}
	})
}
