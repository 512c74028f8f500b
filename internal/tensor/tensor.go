// Package tensor implements the dense float32 linear algebra the neural
// network stack is built on: row-major matrices, GEMM kernels (loops
// ordered to stream rows, four-wide over the reduction index), im2col
// for convolutions, and elementwise kernels.
//
// Each kernel's per-element accumulation order is a contract: every
// golden and result digest downstream depends on its roundings
// (DESIGN.md §13; TestKernelsBitEqualReference pins them). On amd64 the
// innermost bodies — Axpy, MatMul's and MatMulTransAAdd's four-p terms,
// MomentumStep — are SSE2 assembly (kernels_amd64.s) that runs four
// output elements per instruction, each with exactly the roundings of
// the scalar Go loop every other GOARCH builds (kernels_generic.go).
//
// float32 is used throughout because (a) model weights travel on-chain as
// float32 exactly as they are trained, so training in the wire precision
// avoids a lossy conversion step, and (b) halving the memory traffic
// roughly doubles GEMM throughput on this workload.
package tensor

import (
	"fmt"

	"waitornot/internal/xrand"
)

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

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

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
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
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
// The kernel uses i-k-j loop order with 4-wide k unrolling: for row-major
// storage this streams both b and c sequentially, and the j direction is
// four lanes wide on amd64.
func MatMul(a, b, c *Dense) {
	shapeCheck("MatMul", a, b, c)
	n, k, m := a.Rows, a.Cols, b.Cols
	if m == 0 {
		return
	}
	for i := 0; i < n; i++ {
		ci := c.Data[i*m : (i+1)*m]
		clear(ci)
		ai := a.Data[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			bp := b.Data[p*m : (p+4)*m] // checked: the kernel reads 4m floats here, m in ci
			groupedSumKernel(a0, a1, a2, a3, &bp[0], m, &ci[0], m)
		}
		for ; p < k; p++ {
			axpyNonZero(ai[p], b.Data[p*m:(p+1)*m], ci)
		}
	}
}

// MatMulAdd computes c += a*b without zeroing c first.
func MatMulAdd(a, b, c *Dense) {
	shapeCheck("MatMulAdd", a, b, c)
	n, k, m := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		ci := c.Data[i*m : (i+1)*m]
		for p, av := range a.Data[i*k : (i+1)*k] {
			axpyNonZero(av, b.Data[p*m:(p+1)*m], ci)
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
// rests on. Four consecutive p share one pass over a row of c: the
// running sum stays in a register for four adds instead of going
// through memory for each (four j at a time on amd64), and the adds are
// never regrouped. A row whose four a values include a zero takes the
// one-p loop, which is what keeps the skip.
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
	if m == 0 {
		return
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		ap0 := a.Data[p*n : (p+1)*n]
		ap1 := a.Data[(p+1)*n : (p+2)*n]
		ap2 := a.Data[(p+2)*n : (p+3)*n]
		ap3 := a.Data[(p+3)*n : (p+4)*n]
		bp := b.Data[p*m : (p+4)*m] // checked: the kernel reads 4m floats here, m in ci
		b0, b1, b2, b3 := bp[:m], bp[m:2*m], bp[2*m:3*m], bp[3*m:]
		for i, a0 := range ap0 {
			a1, a2, a3 := ap1[i], ap2[i], ap3[i]
			ci := c.Data[i*m : (i+1)*m]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				axpyNonZero(a0, b0, ci)
				axpyNonZero(a1, b1, ci)
				axpyNonZero(a2, b2, ci)
				axpyNonZero(a3, b3, ci)
				continue
			}
			runningSumKernel(a0, a1, a2, a3, &bp[0], m, &ci[0], m)
		}
	}
	for ; p < k; p++ {
		bp := b.Data[p*m : (p+1)*m]
		for i, av := range a.Data[p*n : (p+1)*n] {
			axpyNonZero(av, bp, c.Data[i*m:(i+1)*m])
		}
	}
}

// axpyNonZero is y += alpha*x unless alpha is exactly zero.
func axpyNonZero(alpha float32, x, y []float32) {
	if alpha != 0 {
		Axpy(alpha, x, y)
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
