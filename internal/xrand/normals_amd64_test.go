package xrand

import (
	"math"
	"testing"
)

// boxMuller8 is PAIRS8 alone, normals8's transform without its draws,
// on (u, v) pairs already in p, len(p) a multiple of 16
// (normals_amd64.s); only the tests call it.
//
//go:noescape
func boxMuller8(p []float64)

// scalarPair is NormFloat64's transform of one uniform pair: the normal
// it returns, then its spare.
func scalarPair(u, v float64) (float64, float64) {
	mag := math.Sqrt(-2.0 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	return mag * cos, mag * sin
}

// transform is Normals' split of the whole pairs in p between the
// bodies, on (u, v) already drawn: groups of eight through boxMuller8
// (normals8's PAIRS8) when avx512 is set, the rest through
// boxMullerPairs.
func transform(p []float64) {
	n := 0
	if avx512 {
		n = len(p) &^ 15
		boxMuller8(p[:n])
	}
	boxMullerPairs(p[n:])
}

// checkTransform holds transform of the pairs p to the scalar transform
// of each, bit for bit.
func checkTransform(t *testing.T, p []float64) {
	t.Helper()
	got := append([]float64(nil), p...)
	transform(got)
	for i := 0; i < len(p); i += 2 {
		c, s := scalarPair(p[i], p[i+1])
		if math.Float64bits(got[i]) != math.Float64bits(c) || math.Float64bits(got[i+1]) != math.Float64bits(s) {
			t.Errorf("u=%v v=%v at pair %d of %d: body (%v, %v), scalar (%v, %v)",
				p[i], p[i+1], i/2, len(p)/2, got[i], got[i+1], c, s)
		}
	}
}

// TestBoxMullerPairsEdges holds each body to the scalar transform on
// the inputs where a branch of the scalar code changes: u at both ends
// of [2^-53, 1] and at archLog's f1 <= √2/2 boundary, v at 0 (x = +0,
// where Sincos returns early), at its largest value, and around every
// octant boundary kπ/4, where sincos.go's j&1 map, swap and signs
// change. On sse2 each (u, v) runs in both lanes of a pass and as the
// one-pair tail; on avx512 in each of the eight lanes of a group
// (behind 0-7 padding pairs) and, behind one whole group, as the SSE2
// leftover's one-pair tail.
func TestBoxMullerPairsEdges(t *testing.T) {
	const hsqrt2 = 7.07106781186547524401e-01
	us := []float64{1, 0x1p-53, hsqrt2, math.Nextafter(hsqrt2, 0), math.Nextafter(hsqrt2, 1),
		2 * hsqrt2 / 4, 0.5, math.Nextafter(1, 0), 0.3}
	vs := []float64{0, math.Nextafter(1, 0), 0.5, 0.25}
	for k := 1; k <= 7; k++ {
		// Scan v around k/8 until x·(4/π) has truncated to both k-1 and k.
		below, above := false, false
		v := float64(k) / 8
		for range 16 {
			v = math.Nextafter(v, 0)
		}
		for i := 0; i < 33; i++ {
			vs = append(vs, v)
			j := int(2 * math.Pi * v * (4 / math.Pi))
			below, above = below || j == k-1, above || j == k
			v = math.Nextafter(v, 1)
		}
		if !below || !above {
			t.Fatalf("octant %d: the scan around v = %d/8 does not straddle the boundary", k, k)
		}
	}
	var pairs []float64
	for _, u := range us {
		for _, v := range vs {
			pairs = append(pairs, u, v)
		}
	}
	// padded is n (0.5, 0.25) pairs, then ps.
	padded := func(n int, ps ...float64) []float64 {
		p := make([]float64, 0, 2*n+len(ps))
		for range n {
			p = append(p, 0.5, 0.25)
		}
		return append(p, ps...)
	}
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			useBody(t, body.wide)
			if !body.wide {
				checkTransform(t, pairs)
				checkTransform(t, pairs[2:]) // shifts every pair to the other lane, and one into the tail
			} else {
				for lane := range 8 {
					checkTransform(t, padded(lane, pairs...))
				}
				for i := 0; i < len(pairs); i += 2 {
					checkTransform(t, padded(8, pairs[i], pairs[i+1]))
				}
			}
			// x = +0 gives (+0·mag, 1·mag) in every lane: the sine keeps its sign.
			var got []float64
			for range 9 {
				got = append(got, 0.5, 0)
			}
			transform(got)
			for i := 0; i < len(got); i += 2 {
				if math.Signbit(got[i+1]) || got[i] != math.Sqrt(-2*math.Log(0.5)) {
					t.Errorf("v = 0 at pair %d: body gives (%v, %v), want (mag, +0)", i/2, got[i], got[i+1])
				}
			}
		})
	}
}
