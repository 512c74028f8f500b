package xrand

// Normals fills dst with the values of len(dst) NormFloat64 calls and
// leaves r where those calls would: a pending spare becomes dst[0], and
// an odd remainder leaves its spare pending. The whole pairs between go
// to normals8 in groups of eight where avx512 is set, and the rest to
// boxMullerPairs (DESIGN.md §5, "Eight pairs per pass").
func (r *RNG) Normals(dst []float64) {
	if len(dst) > 0 && r.hasSpare {
		dst[0] = r.NormFloat64()
		dst = dst[1:]
	}
	if avx512 {
		dst = dst[normals8(dst, &r.state):]
	}
	pairs := dst[:len(dst)&^1]
	for i := 0; i+1 < len(pairs); i += 2 {
		pairs[i] = 1.0 - r.Float64()
		pairs[i+1] = r.Float64()
	}
	boxMullerPairs(pairs)
	if len(dst) > len(pairs) {
		dst[len(pairs)] = r.NormFloat64()
	}
}

// boxMullerPairs replaces each pair (p[2i], p[2i+1]) = (u, v) with the
// two normals NormFloat64 makes of it, bit for bit, in SSE2 assembly
// (normals_amd64.s). u must lie in [2^-53, 1] and v in [0, 1), as
// NormFloat64 draws them.
//
//go:noescape
func boxMullerPairs(p []float64)

// normals8 writes NormFloat64's draws from *state to p's longest prefix
// of whole groups of eight pairs, advances *state, returns its length.
//
//go:noescape
func normals8(p []float64, state *uint64) int
