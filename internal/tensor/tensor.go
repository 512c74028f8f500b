// Package tensor implements the dense float32 linear algebra the neural
// network stack is built on: row-major matrices, GEMM kernels (loops
// ordered to stream rows, four-wide over the reduction index), im2col
// for convolutions, and elementwise kernels.
//
// Each kernel's per-element accumulation order is a contract: every
// golden and result digest downstream depends on its roundings
// (DESIGN.md §13; TestKernelsBitEqualReference pins them). On amd64 the
// innermost bodies — Axpy, one whole row of MatMul and of
// MatMulTransAAdd (zero skips included), MomentumStep — are assembly
// (kernels_amd64.s) that runs four output elements per SSE2 instruction,
// sixteen per AVX-512F one where the CPU has it, each with exactly the
// roundings of the scalar Go loop every other GOARCH builds.
//
// float32 is used throughout because (a) model weights travel on-chain as
// float32 exactly as they are trained, so training in the wire precision
// avoids a lossy conversion step, and (b) halving the memory traffic
// roughly doubles GEMM throughput on this workload.
package tensor

import (
	"fmt"

	"waitornot/internal/cpu"
	"waitornot/internal/xrand"
)

// avx512 selects the AVX-512 bodies, here and in kernels_amd64.s; tests flip it.
var avx512 = cpu.AVX512F

// Dense is a row-major matrix of float32. A Dense with Rows == 1 doubles
// as a vector. The zero value is an empty matrix; use New to allocate.
type Dense struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New allocates a zeroed Rows x Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float32) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// at returns the element at (i, j).
func (m *Dense) at(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set writes v at (i, j).
func (m *Dense) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randomize fills the matrix with N(0, std) samples from rng.
func (m *Dense) Randomize(rng *xrand.RNG, std float64) {
	var z [128]float64
	for i0 := 0; i0 < len(m.Data); i0 += len(z) {
		zs := z[:min(len(z), len(m.Data)-i0)]
		rng.Normals(zs)
		for k, v := range zs {
			m.Data[i0+k] = float32(v * std)
		}
	}
}

// Equal reports whether two matrices have identical shape and elements.
func (m *Dense) Equal(o *Dense) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// shapeCheck panics unless a times b into c is a legal GEMM.
func shapeCheck(op string, a, b, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			op, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	checkData(op, a, b, c)
}

// checkData panics unless every operand holds exactly Rows*Cols
// elements: a row slice may reach into spare capacity.
func checkData(op string, ms ...*Dense) {
	for _, m := range ms {
		if len(m.Data) != m.Rows*m.Cols {
			panic(fmt.Sprintf("tensor: %s operand %dx%d holds %d elements", op, m.Rows, m.Cols, len(m.Data)))
		}
	}
}

// MatMul computes c = a*b, overwriting c. Shapes must agree.
//
// Each row of c is one call to a row body that streams the rows of b in
// order, four p at a time, and keeps the row (20 columns at a time) in
// registers for the whole reduction; with avx512 a call takes two rows.
func MatMul(a, b, c *Dense) {
	shapeCheck("MatMul", a, b, c)
	k, m := a.Cols, b.Cols
	i := 0
	for ; avx512 && i+2 <= a.Rows; i += 2 {
		matMulRowPairKernel(a.Data[i*k:(i+2)*k], b.Data, c.Data[i*m:(i+2)*m])
	}
	for ; i < a.Rows; i++ {
		matMulRowKernel(a.Data[i*k:(i+1)*k], b.Data, c.Data[i*m:(i+1)*m])
	}
}

// MatMulAdd computes c += a*b without zeroing c first.
func MatMulAdd(a, b, c *Dense) {
	shapeCheck("MatMulAdd", a, b, c)
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		ci := c.Data[i*m : (i+1)*m]
		for p, av := range a.Data[i*k : (i+1)*k] {
			if av != 0 { // the zero skip: 0*Inf never makes a NaN
				Axpy(av, b.Data[p*m:(p+1)*m], ci)
			}
		}
	}
}

// MatMulTransB computes c = a * bᵀ, overwriting c.
// b is rb x cb and interpreted transposed, so shapes are
// (n x k) * (m x k)ᵀ -> (n x m).
func MatMulTransB(a, b, c *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch (%dx%d)*(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	checkData("MatMulTransB", a, b, c)
	n, k, m := a.Rows, a.Cols, b.Rows
	for i := 0; i < n; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var sum float32
			p := 0
			for ; p+4 <= k; p += 4 {
				sum += ai[p]*bj[p] + ai[p+1]*bj[p+1] + ai[p+2]*bj[p+2] + ai[p+3]*bj[p+3]
			}
			for ; p < k; p++ {
				sum += ai[p] * bj[p]
			}
			ci[j] = sum
		}
	}
}

// MatMulTransA computes c = aᵀ * b, overwriting c.
// a is ra x ca and interpreted transposed, so shapes are
// (k x n)ᵀ * (k x m) -> (n x m).
func MatMulTransA(a, b, c *Dense) {
	c.Zero()
	MatMulTransAAdd(a, b, c)
}

// MatMulTransAAdd computes c += aᵀ * b without zeroing c first.
// Shapes follow MatMulTransA: (k x n)ᵀ * (k x m) -> (n x m).
//
// Every element of c takes its products one at a time in ascending p,
// one rounding per add, and a p whose a value is exactly zero is
// skipped (so 0*Inf never makes a NaN) — the bit contract every golden
// rests on. Each row i of c is one call to a row body that reads column
// i of a down its stride and keeps the row (20 columns at a time) in
// registers for all k adds; with avx512 a call takes rows i and i+1.
//
// The backward pass of every dense layer accumulates straight into its
// gradient through this kernel.
func MatMulTransAAdd(a, b, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAAdd shape mismatch (%dx%d)T*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	checkData("MatMulTransAAdd", a, b, c)
	k, n, m := a.Rows, a.Cols, b.Cols
	if k == 0 {
		return
	}
	// a.Data[i:] holds column i (and i+1 < n) down to row k-1.
	i := 0
	for ; avx512 && i+2 <= n; i += 2 {
		matMulTransARowPairKernel(a.Data[i:], n, k, b.Data, c.Data[i*m:(i+2)*m])
	}
	for ; i < n; i++ {
		matMulTransARowKernel(a.Data[i:], n, k, b.Data, c.Data[i*m:(i+1)*m])
	}
}

// AddRowVector adds vector v (length m.Cols) to every row of m.
func AddRowVector(m *Dense, v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// AddColSums accumulates the per-column sums of m into dst
// (length m.Cols), in row order.
func AddColSums(m *Dense, dst []float32) {
	if len(dst) != m.Cols {
		panic("tensor: AddColSums length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Axpy computes y += alpha*x for equal-length slices. x and y must be
// the same slice or not overlap: four elements are read before any is
// written.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	if len(x) > 0 {
		axpyKernel(alpha, &x[0], &y[0], len(x))
	}
}

// MomentumStep is one SGD step with classical momentum and L2 weight
// decay over equal-length parameter, gradient and velocity slices:
// gj := g[j] + wd*p[j]; v[j] = mu*v[j] - lr*gj; p[j] += v[j]; g[j] = 0.
func MomentumStep(lr, mu, wd float32, p, g, v []float32) {
	if len(g) != len(p) || len(v) != len(p) {
		panic("tensor: MomentumStep length mismatch")
	}
	if len(p) > 0 {
		momentumKernel(lr, mu, wd, &p[0], &g[0], &v[0], len(p))
	}
}
