//go:build !amd64

package xrand

// Normals is len(dst) NormFloat64 calls on every GOARCH without
// normals_amd64.s; the contract is documented in normals_amd64.go.
func (r *RNG) Normals(dst []float64) {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}
