package xrand

import (
	"math"
	"testing"
)

// scalarPair is NormFloat64's transform of one uniform pair: the normal
// it returns, then its spare.
func scalarPair(u, v float64) (float64, float64) {
	mag := math.Sqrt(-2.0 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	return mag * cos, mag * sin
}

// TestBoxMullerPairsEdges holds the body to the scalar transform on the
// inputs where a branch of the scalar code changes: u at both ends of
// [2^-53, 1] and at archLog's f1 <= √2/2 boundary, v at 0 (x = +0, where
// Sincos returns early), at its largest value, and around every octant
// boundary kπ/4, where sincos.go's j&1 map, swap and signs change. Each
// (u, v) runs in both lanes of a pass and as the one-pair tail.
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
	for _, odd := range []bool{false, true} {
		p := pairs
		if odd {
			p = pairs[2:] // shifts every pair to the other lane, and one into the tail
		}
		got := append([]float64(nil), p...)
		boxMullerPairs(got)
		for i := 0; i < len(p); i += 2 {
			c, s := scalarPair(p[i], p[i+1])
			if math.Float64bits(got[i]) != math.Float64bits(c) || math.Float64bits(got[i+1]) != math.Float64bits(s) {
				t.Errorf("u=%v v=%v: body (%v, %v), scalar (%v, %v)", p[i], p[i+1], got[i], got[i+1], c, s)
			}
		}
	}
	// x = +0 gives (+0·mag, 1·mag): the sine keeps its sign.
	got := []float64{0.5, 0}
	boxMullerPairs(got)
	if math.Signbit(got[1]) || got[0] != math.Sqrt(-2*math.Log(0.5)) {
		t.Errorf("v = 0: body gives (%v, %v), want (mag, +0)", got[0], got[1])
	}
}
