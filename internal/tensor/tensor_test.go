package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"waitornot/internal/xrand"
)

// naiveMatMul is the reference implementation the optimized kernels are
// checked against.
func naiveMatMul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for p := 0; p < a.Cols; p++ {
				sum += a.at(i, p) * b.at(p, j)
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

func randomDense(rng *xrand.RNG, rows, cols int) *Dense {
	m := New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

func approxEqual(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 13, 3}, {16, 32, 8}, {3, 1, 9}, {9, 6, 1},
	}
	for _, s := range shapes {
		a := randomDense(rng, s.n, s.k)
		b := randomDense(rng, s.k, s.m)
		c := New(s.n, s.m)
		MatMul(a, b, c)
		want := naiveMatMul(a, b)
		if !approxEqual(c, want, 1e-4) {
			t.Errorf("MatMul mismatch for %dx%dx%d", s.n, s.k, s.m)
		}
	}
}

func TestMatMulOverwritesStale(t *testing.T) {
	rng := xrand.New(2)
	a := randomDense(rng, 4, 4)
	b := randomDense(rng, 4, 4)
	c := New(4, 4)
	for i := range c.Data {
		c.Data[i] = 999
	}
	MatMul(a, b, c)
	if !approxEqual(c, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMul must overwrite previous contents of c")
	}
}

func TestMatMulAddAccumulates(t *testing.T) {
	rng := xrand.New(3)
	a := randomDense(rng, 3, 5)
	b := randomDense(rng, 5, 2)
	c := New(3, 2)
	for i := range c.Data {
		c.Data[i] = 1
	}
	MatMulAdd(a, b, c)
	want := naiveMatMul(a, b)
	for i := range want.Data {
		want.Data[i]++
	}
	if !approxEqual(c, want, 1e-4) {
		t.Fatal("MatMulAdd mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := xrand.New(4)
	a := randomDense(rng, 6, 7)
	bt := randomDense(rng, 9, 7) // b = btᵀ is 7x9
	c := New(6, 9)
	MatMulTransB(a, bt, c)

	b := New(7, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			b.Set(j, i, bt.at(i, j))
		}
	}
	if !approxEqual(c, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := xrand.New(5)
	at := randomDense(rng, 7, 6) // a = atᵀ is 6x7
	b := randomDense(rng, 7, 4)
	c := New(6, 4)
	MatMulTransA(at, b, c)

	a := New(6, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 6; j++ {
			a.Set(j, i, at.at(i, j))
		}
	}
	if !approxEqual(c, naiveMatMul(a, b), 1e-4) {
		t.Fatal("MatMulTransA mismatch")
	}
}

// The ref* loops are the kernels' bit contract (DESIGN.md §13), one
// output element at a time: products join the sum in ascending p, each
// add rounds once, and a p whose a value is exactly zero (either sign)
// is skipped. A kernel may walk memory in any order that leaves every
// element with this sequence of roundings.

// refMatMulAdd is c += a*b.
func refMatMulAdd(a, b, c *Dense) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := c.at(i, j)
			for p := 0; p < a.Cols; p++ {
				av := a.at(i, p)
				if av == 0 {
					continue
				}
				s += av * b.at(p, j)
			}
			c.Set(i, j, s)
		}
	}
}

// refMatMulTransAAdd is c += aᵀ*b.
func refMatMulTransAAdd(a, b, c *Dense) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := c.at(i, j)
			for p := 0; p < a.Rows; p++ {
				av := a.at(p, i)
				if av == 0 {
					continue
				}
				s += av * b.at(p, j)
			}
			c.Set(i, j, s)
		}
	}
}

// refMatMul is c = a*b in MatMul's documented grouping: each aligned
// group of four p joins the sum as one pre-added term (skipped only
// when all four a values are zero), the k%4 tail one p at a time.
func refMatMul(a, b, c *Dense) {
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			p := 0
			for ; p+4 <= k; p += 4 {
				a0, a1, a2, a3 := a.at(i, p), a.at(i, p+1), a.at(i, p+2), a.at(i, p+3)
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				s += a0*b.at(p, j) + a1*b.at(p+1, j) + a2*b.at(p+2, j) + a3*b.at(p+3, j)
			}
			for ; p < k; p++ {
				if av := a.at(i, p); av != 0 {
					s += av * b.at(p, j)
				}
			}
			c.Set(i, j, s)
		}
	}
}

// refMatMulTransB is c = a*btᵀ in MatMulTransB's grouping: from +0,
// each aligned group of four p joins as one pre-added term with no zero
// skip, the k%4 tail one p at a time.
func refMatMulTransB(a, bt, c *Dense) {
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < bt.Rows; j++ {
			var s float32
			p := 0
			for ; p+4 <= k; p += 4 {
				s += a.at(i, p)*bt.at(j, p) + a.at(i, p+1)*bt.at(j, p+1) + a.at(i, p+2)*bt.at(j, p+2) + a.at(i, p+3)*bt.at(j, p+3)
			}
			for ; p < k; p++ {
				s += a.at(i, p) * bt.at(j, p)
			}
			c.Set(i, j, s)
		}
	}
}

// transpose returns mᵀ.
func transpose(m *Dense) *Dense {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.at(i, j))
		}
	}
	return t
}

// refAxpy is y[i] += alpha*x[i], one element at a time.
func refAxpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// refMomentumStep is SGD's momentum update, one element at a time.
func refMomentumStep(lr, mu, wd float32, p, g, v []float32) {
	for j := range p {
		gj := g[j] + wd*p[j]
		v[j] = mu*v[j] - lr*gj
		p[j] += v[j]
		g[j] = 0
	}
}

// sameBits compares element bit patterns; any NaN matches any NaN
// (which operand's payload survives an add is the instruction
// selector's choice, not the accumulation order's).
func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#08x), reference %v (%#08x)",
				label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// specialFloats are the operands where a kernel's order of operations
// shows: signed zeros and the zero skip, NaN, infinities, and
// subnormals (Go never sets FTZ/DAZ, so they must flow through the
// packed and the scalar instructions alike).
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -0x1p-130,
}

// guard fills the spare capacity behind an unaligned operand.
const guard = float32(-1234.5)

// unaligned copies x into a slice that starts off floats into a larger
// allocation, so the kernels see every 16-byte phase; the capacity
// past its end holds guard values.
func unaligned(x []float32, off int) []float32 {
	back := make([]float32, off+len(x)+5)
	for i := range back {
		back[i] = guard
	}
	v := back[off : off+len(x)]
	copy(v, x)
	return v
}

// unalignedDense is unaligned for a matrix.
func unalignedDense(m *Dense, off int) *Dense {
	return FromSlice(m.Rows, m.Cols, unaligned(m.Data, off))
}

// checkGuard fails if anything wrote past the end of an unaligned slice.
func checkGuard(t *testing.T, label string, x []float32) {
	t.Helper()
	for i, v := range x[len(x):cap(x)] {
		if v != guard {
			t.Fatalf("%s: element %d past the end overwritten with %v", label, i, v)
		}
	}
}

// checkGEMMs runs every GEMM kernel on unaligned copies of a (n x k),
// at (its k x n counterpart for the TransA kernels) and b (k x m, and
// its transpose for MatMulTransB), into an unaligned c preloaded with
// c0, and compares each with its reference loop.
func checkGEMMs(t *testing.T, label string, a, at, b, c0 *Dense, off int) {
	t.Helper()
	bt := unalignedDense(transpose(b), off)
	a, at, b = unalignedDense(a, off), unalignedDense(at, (off+1)%4), unalignedDense(b, (off+2)%4)
	got, want := unalignedDense(c0, (off+3)%4), New(c0.Rows, c0.Cols)
	for _, k := range []struct {
		name        string
		accumulates bool // otherwise stale contents of c must be overwritten
		run, ref    func(c *Dense)
	}{
		{"MatMul", false, func(c *Dense) { MatMul(a, b, c) }, func(c *Dense) { refMatMul(a, b, c) }},
		{"MatMulAdd", true, func(c *Dense) { MatMulAdd(a, b, c) }, func(c *Dense) { refMatMulAdd(a, b, c) }},
		{"MatMulTransA", false, func(c *Dense) { MatMulTransA(at, b, c) }, func(c *Dense) { refMatMulTransAAdd(at, b, c) }},
		{"MatMulTransAAdd", true, func(c *Dense) { MatMulTransAAdd(at, b, c) }, func(c *Dense) { refMatMulTransAAdd(at, b, c) }},
		{"MatMulTransB", false, func(c *Dense) { MatMulTransB(a, bt, c) }, func(c *Dense) { refMatMulTransB(a, bt, c) }},
	} {
		copy(got.Data, c0.Data)
		want.Zero()
		if k.accumulates {
			copy(want.Data, c0.Data)
		}
		k.run(got)
		k.ref(want)
		sameBits(t, k.name+" "+label, got.Data, want.Data)
		checkGuard(t, k.name+" "+label, got.Data)
	}
}

// checkAxpy compares Axpy with refAxpy on unaligned operands, then
// with the exact alias Axpy(alpha, y, y).
func checkAxpy(t *testing.T, label string, alpha float32, x, y []float32, off int) {
	t.Helper()
	x = unaligned(x, off)
	got, want := unaligned(y, (off+1)%4), slices.Clone(y)
	Axpy(alpha, x, got)
	refAxpy(alpha, x, want)
	sameBits(t, "Axpy "+label, got, want)
	checkGuard(t, "Axpy "+label, got)

	copy(got, y)
	copy(want, y)
	Axpy(alpha, got, got)
	refAxpy(alpha, want, want)
	sameBits(t, "Axpy aliased "+label, got, want)
	checkGuard(t, "Axpy aliased "+label, got)
}

// checkMomentum compares MomentumStep with refMomentumStep on unaligned
// copies of p, g and v; all three are updated in place.
func checkMomentum(t *testing.T, label string, lr, mu, wd float32, p, g, v []float32, off int) {
	t.Helper()
	gp, gg, gv := unaligned(p, off), unaligned(g, (off+1)%4), unaligned(v, (off+2)%4)
	wp, wg, wv := slices.Clone(p), slices.Clone(g), slices.Clone(v)
	MomentumStep(lr, mu, wd, gp, gg, gv)
	refMomentumStep(lr, mu, wd, wp, wg, wv)
	for _, s := range []struct {
		name      string
		got, want []float32
	}{{"p", gp, wp}, {"g", gg, wg}, {"v", gv, wv}} {
		sameBits(t, "MomentumStep "+s.name+" "+label, s.got, s.want)
		checkGuard(t, "MomentumStep "+s.name+" "+label, s.got)
	}
}

// TestKernelsBitEqualReference pins every GEMM kernel's accumulation
// order bit for bit, over shapes covering k%4 and m%4 in {0,1,2,3}, the
// first-layer weight-gradient shape (32x3072)ᵀ·(32x20), ReLU-style
// sparse a, a non-zero initial c, non-finite / signed-zero / subnormal
// operands (where a skipped zero is visible: 0*Inf would be NaN) and
// operands starting at every 16-byte phase; then Axpy and MomentumStep
// over lengths 0-70 against their scalar loops. Each body this CPU runs
// is a subtest; odd n leaves a row outside the paired bodies' pairs.
func TestKernelsBitEqualReference(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			useBody(t, body.wide)
			checkKernelsBitEqualReference(t)
		})
	}
}

// checkKernelsBitEqualReference is TestKernelsBitEqualReference on the
// body selected.
func checkKernelsBitEqualReference(t *testing.T) {
	rng := xrand.New(41)
	fills := []struct {
		name string
		fill func(m *Dense)
	}{
		{"dense", func(*Dense) {}},
		{"sparse", func(m *Dense) { // ReLU output: about half exact zeros
			for i, v := range m.Data {
				if v < 0 {
					m.Data[i] = 0
				}
			}
		}},
		{"special", func(m *Dense) {
			for i := range m.Data {
				if rng.Intn(4) == 0 {
					m.Data[i] = specialFloats[rng.Intn(len(specialFloats))]
				}
			}
		}},
		{"staggered", func(m *Dense) { // zero groups in one row of a pair, zero p in one column
			for r := range m.Rows {
				for c := range m.Cols {
					if (r%2 == 0 && c < m.Cols/2) || (c%2 == 1 && r >= m.Rows/2) {
						m.Set(r, c, 0)
					}
				}
			}
		}},
	}
	// n x k times k x m (for the TransA kernels a is stored k x n).
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {3, 4, 5}, {5, 5, 3}, {2, 6, 7}, {4, 7, 2}, {6, 8, 20},
		{9, 13, 10}, {20, 32, 10}, {16, 27, 33}, {3072, 32, 20}, {32, 3072, 20},
	}
	// Every tile mix of the row bodies (4; 20; 20+4; 2×20; 2×20+1;
	// 6×20+2×4 columns) against every k%4, on three rows: a pair and a
	// leftover row.
	for _, m := range []int{4, 20, 24, 40, 41, 128} {
		for k := 8; k < 12; k++ {
			shapes = append(shapes, struct{ n, k, m int }{3, k, m})
		}
	}
	off := 0 // operand offsets cycle through every 16-byte phase
	for _, s := range shapes {
		for _, fa := range fills {
			for _, fb := range fills {
				off = (off + 1) % 4
				label := fmt.Sprintf("%dx%dx%d a=%s b=%s off=%d", s.n, s.k, s.m, fa.name, fb.name, off)
				a, at := randomDense(rng, s.n, s.k), randomDense(rng, s.k, s.n)
				b := randomDense(rng, s.k, s.m)
				fa.fill(a)
				fa.fill(at)
				fb.fill(b)
				c0 := randomDense(rng, s.n, s.m) // non-zero initial accumulator
				fb.fill(c0)
				checkGEMMs(t, label, a, at, b, c0, off)
			}
		}
	}

	// Subnormals must also come out as values: under a flush-to-zero or
	// denormals-are-zero mode the kernels and the reference loops would
	// agree on 0 (and DAZ would make a float compare call them equal,
	// hence the bits). Five elements reach the packed loop and the tail.
	for _, c := range []struct{ alpha, x, want float32 }{
		{1, math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32}, // DAZ reads x as 0
		{0.5, 0x1p-126, 0x1p-127},                                     // FTZ flushes the product
	} {
		x, y := []float32{c.x, c.x, c.x, c.x, c.x}, make([]float32, 5)
		Axpy(c.alpha, x, y)
		for i, v := range y {
			if math.Float32bits(v) != math.Float32bits(c.want) {
				t.Fatalf("Axpy(%v, %#08x): element %d = %#08x, want the subnormal %#08x",
					c.alpha, math.Float32bits(c.x), i, math.Float32bits(v), math.Float32bits(c.want))
			}
		}
	}

	vec := func(n int) []float32 {
		m := randomDense(rng, 1, n)
		fills[2].fill(m)
		return m.Data
	}
	for n := 0; n <= 70; n++ {
		alphas := []float32{0.5, -1, 0, float32(rng.NormFloat64())}
		alphas = append(alphas, specialFloats...)
		for _, alpha := range alphas {
			off = (off + 1) % 4
			checkAxpy(t, fmt.Sprintf("n=%d alpha=%v off=%d", n, alpha, off), alpha, vec(n), vec(n), off)
		}
		for _, h := range [][3]float32{{0.01, 0.9, 1e-3}, {0.05, 0, 0}, {1, 0.5, 2}} {
			off = (off + 1) % 4
			checkMomentum(t, fmt.Sprintf("n=%d lr=%v mu=%v wd=%v off=%d", n, h[0], h[1], h[2], off),
				h[0], h[1], h[2], vec(n), vec(n), vec(n), off)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5), New(2, 5))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A*B)*C == A*(B*C) within float tolerance.
	rng := xrand.New(6)
	check := func(seed uint64) bool {
		r := rng.Derive("assoc").Derive(string(rune(seed % 1000)))
		a := randomDense(r, 4, 5)
		b := randomDense(r, 5, 3)
		c := randomDense(r, 3, 6)
		ab := New(4, 3)
		MatMul(a, b, ab)
		abc1 := New(4, 6)
		MatMul(ab, c, abc1)
		bc := New(5, 6)
		MatMul(b, c, bc)
		abc2 := New(4, 6)
		MatMul(a, bc, abc2)
		return approxEqual(abc1, abc2, 1e-3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRowVector(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddRowVector: got %v want %v", m.Data, want)
		}
	}
	sums := []float32{1, 0, 0} // accumulates into what is there
	AddColSums(m, sums)
	if sums[0] != 26 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("AddColSums: got %v", sums)
	}
}

func TestAxpyScaleDot(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 10, 10}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 14 || y[2] != 16 {
		t.Fatalf("Axpy: got %v", y)
	}
	// Onto zeros it is a plain scale; against itself, -1 cancels.
	z := make([]float32, 3)
	Axpy(0.5, y, z)
	if z[0] != 6 || z[1] != 7 || z[2] != 8 {
		t.Fatalf("Axpy onto zeros: got %v", z)
	}
	Axpy(-1, z, z)
	if z[0] != 0 || z[1] != 0 || z[2] != 0 {
		t.Fatalf("Axpy(-1, z, z): got %v", z)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1: patch matrix is just the image reshaped.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 1, KW: 1, Stride: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := New(9, 1)
	Im2Col(g, x, out)
	for i, v := range x {
		if out.Data[i] != v {
			t.Fatalf("identity im2col: got %v", out.Data)
		}
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 2x2 input, 2x2 kernel, stride 1, no pad -> single patch.
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, Stride: 1}
	x := []float32{1, 2, 3, 4}
	out := New(1, 4)
	Im2Col(g, x, out)
	for i, v := range []float32{1, 2, 3, 4} {
		if out.Data[i] != v {
			t.Fatalf("got %v", out.Data)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	// 1x1 input, 3x3 kernel, pad 1 -> one patch with the value centered.
	g := ConvGeom{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float32{7}
	out := New(1, 9)
	Im2Col(g, x, out)
	for i, v := range out.Data {
		want := float32(0)
		if i == 4 {
			want = 7
		}
		if v != want {
			t.Fatalf("pad patch wrong at %d: %v", i, out.Data)
		}
	}
}

func TestIm2ColMultiChannelStride(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2}
	if g.OutH() != 2 || g.OutW() != 2 || g.PatchLen() != 8 {
		t.Fatalf("geometry wrong: %d %d %d", g.OutH(), g.OutW(), g.PatchLen())
	}
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(i)
	}
	out := New(4, 8)
	Im2Col(g, x, out)
	// First patch, channel 0 is rows {0,1} cols {0,1} = 0,1,4,5;
	// channel 1 adds 16.
	want := []float32{0, 1, 4, 5, 16, 17, 20, 21}
	for i, v := range want {
		if out.Row(0)[i] != v {
			t.Fatalf("patch 0: got %v want %v", out.Row(0), want)
		}
	}
}

func TestCol2ImRoundTripProperty(t *testing.T) {
	// For stride >= kernel (non-overlapping patches, no padding),
	// Col2Im(Im2Col(x)) == x.
	g := ConvGeom{InC: 2, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2}
	rng := xrand.New(77)
	x := make([]float32, g.InC*g.InH*g.InW)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	cols := New(g.OutH()*g.OutW(), g.PatchLen())
	Im2Col(g, x, cols)
	back := make([]float32, len(x))
	Col2Im(g, cols, back)
	for i := range x {
		if x[i] != back[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1},
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 0},
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1, Pad: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
}

// SimpleNN's first layer on one minibatch, one row body each: the
// forward product (32x3072)·(3072x20) and the weight gradient
// (32x3072)ᵀ·(32x20). SetBytes is the flop count, so MB/s reads as
// Mflop/s. Each runs on both bodies, sse2 and avx512, so one run shows
// their ratio.
func BenchmarkMatMulFirstLayer(b *testing.B) {
	rng := xrand.New(1)
	x, w, y := randomDense(rng, 32, 3072), randomDense(rng, 3072, 20), New(32, 20)
	benchBodies(b, 2*32*3072*20, func() { MatMul(x, w, y) })
}

func BenchmarkMatMulTransAAddFirstLayer(b *testing.B) {
	rng := xrand.New(1)
	x, dy, dw := randomDense(rng, 32, 3072), randomDense(rng, 32, 20), New(3072, 20)
	benchBodies(b, 2*32*3072*20, func() { MatMulTransAAdd(x, dy, dw) })
}

// benchBodies times op on each kernel body, reporting flops as bytes.
func benchBodies(b *testing.B, flops int64, op func()) {
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			useBody(b, body.wide)
			b.SetBytes(flops)
			for b.Loop() {
				op()
			}
		})
	}
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }

func benchMatMul(b *testing.B, n int) {
	rng := xrand.New(1)
	a := randomDense(rng, n, n)
	bb := randomDense(rng, n, n)
	c := New(n, n)
	b.SetBytes(int64(n * n * n * 2)) // FLOPs as "bytes" for ops/s readout
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, bb, c)
	}
}
