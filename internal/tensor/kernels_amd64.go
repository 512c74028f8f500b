package tensor

// The four kernel bodies, in SSE2 assembly (kernels_amd64.s); the
// pure-Go loops they replace are kernels_generic.go, built on every
// other GOARCH. Each walks n elements behind raw pointers, so only the
// bounds-checking wrappers in tensor.go call them.

// axpyKernel is y[i] += alpha*x[i] for i < n. x and y must be the same
// pointer or address disjoint ranges.
//
//go:noescape
func axpyKernel(alpha float32, x, y *float32, n int)

// groupedSumKernel is
// c[j] += ((a0*b0[j] + a1*b1[j]) + a2*b2[j]) + a3*b3[j] for j < n, with
// row bq starting at b + q*stride.
//
//go:noescape
func groupedSumKernel(a0, a1, a2, a3 float32, b *float32, stride int, c *float32, n int)

// runningSumKernel is s := c[j] + a0*b0[j]; s += a1*b1[j];
// s += a2*b2[j]; c[j] = s + a3*b3[j] for j < n, with row bq starting at
// b + q*stride.
//
//go:noescape
func runningSumKernel(a0, a1, a2, a3 float32, b *float32, stride int, c *float32, n int)

// momentumKernel is gj := grad[j] + wd*p[j]; v[j] = mu*v[j] - lr*gj;
// p[j] += v[j]; grad[j] = 0 for j < n.
//
//go:noescape
func momentumKernel(lr, mu, wd float32, p, grad, v *float32, n int)
