//go:build !amd64

package tensor

import "unsafe"

// The four kernel bodies as plain Go loops, for every GOARCH without
// kernels_amd64.s. Signatures and contracts are the ones documented in
// kernels_amd64.go.

func axpyKernel(alpha float32, x, y *float32, n int) {
	ys := unsafe.Slice(y, n)
	for i, v := range unsafe.Slice(x, n) {
		ys[i] += alpha * v
	}
}

func matMulRowKernel(a, b, c []float32) {
	m := len(c)
	clear(c)
	p := 0
	for ; p+4 <= len(a); p += 4 {
		a0, a1, a2, a3 := a[p], a[p+1], a[p+2], a[p+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0, b1, b2, b3 := b[p*m:(p+1)*m], b[(p+1)*m:(p+2)*m], b[(p+2)*m:(p+3)*m], b[(p+3)*m:(p+4)*m]
		for j := range c {
			c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	// The k%4 tail is a TransA row over a column of stride 1.
	matMulTransARowKernel(a[p:], 1, len(a)-p, b[p*m:], c)
}

// cpu.AVX512F is false here, so these pair kernels never run.
func matMulRowPairKernel(a, b, c []float32) {
	matMulRowKernel(a[:len(a)/2], b, c[:len(c)/2])
	matMulRowKernel(a[len(a)/2:], b, c[len(c)/2:])
}

func matMulTransARowPairKernel(a []float32, stride, k int, b, c []float32) {
	matMulTransARowKernel(a, stride, k, b, c[:len(c)/2])
	matMulTransARowKernel(a[1:], stride, k, b, c[len(c)/2:])
}

func matMulTransARowKernel(a []float32, stride, k int, b, c []float32) {
	m := len(c)
	for p := 0; p < k; p++ {
		if av := a[p*stride]; av != 0 {
			for j, bv := range b[p*m : (p+1)*m] {
				c[j] += av * bv
			}
		}
	}
}

func momentumKernel(lr, mu, wd float32, p, grad, v *float32, n int) {
	ps, gs, vs := unsafe.Slice(p, n), unsafe.Slice(grad, n), unsafe.Slice(v, n)
	for j := range ps {
		gj := gs[j] + wd*ps[j]
		vs[j] = mu*vs[j] - lr*gj
		ps[j] += vs[j]
		gs[j] = 0
	}
}
