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

func groupedSumKernel(a0, a1, a2, a3 float32, b *float32, stride int, c *float32, n int) {
	b0, b1, b2, b3 := rows4(b, stride, n)
	ci := unsafe.Slice(c, n)
	for j := range ci {
		ci[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

func runningSumKernel(a0, a1, a2, a3 float32, b *float32, stride int, c *float32, n int) {
	b0, b1, b2, b3 := rows4(b, stride, n)
	ci := unsafe.Slice(c, n)
	for j := range ci {
		s := ci[j] + a0*b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		ci[j] = s
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

// rows4 views the four n-long rows starting at b + q*stride.
func rows4(b *float32, stride, n int) (b0, b1, b2, b3 []float32) {
	all := unsafe.Slice(b, 3*stride+n)
	return all[:n], all[stride : stride+n], all[2*stride : 2*stride+n], all[3*stride : 3*stride+n]
}
