package tensor

// The kernel bodies, in SSE2 and AVX-512 assembly (kernels_amd64.s);
// the pure-Go loops they replace are kernels_generic.go, built on every
// other GOARCH. Each walks n elements behind raw pointers, so only the
// bounds-checking wrappers in tensor.go call them.

// axpyKernel is y[i] += alpha*x[i] for i < n. x and y must be the same
// pointer or address disjoint ranges.
//
//go:noescape
func axpyKernel(alpha float32, x, y *float32, n int)

// matMulRowKernel is one row of MatMul: c = a·b for a 1×k row a and a
// k×m matrix b, k = len(a), m = len(c), len(b) >= k*m. Every c[j]
// starts at +0; each aligned group of four p adds
// ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j] unless its four a are
// all ±0, and the k%4 tail adds a[p]·b[p][j] one p at a time unless
// a[p] is ±0.
//
//go:noescape
func matMulRowKernel(a, b, c []float32)

// matMulTransARowKernel is one row of MatMulTransAAdd: c[j] +=
// a[p*stride]·b[p*m+j] for p = 0..k-1 in ascending order, one rounding
// per add, skipping every p whose a is ±0; m = len(c),
// len(a) > (k-1)*stride and len(b) >= k*m.
//
//go:noescape
func matMulTransARowKernel(a []float32, stride, k int, b, c []float32)

// The pair kernels, AVX-512 only, are the two row kernels on two rows
// at once: c holds both, m = len(c)/2. matMulRowPairKernel's a holds
// both rows of a (k = len(a)/2); matMulTransARowPairKernel reads
// columns a[0:] and a[1:].
//
//go:noescape
func matMulRowPairKernel(a, b, c []float32)

//go:noescape
func matMulTransARowPairKernel(a []float32, stride, k int, b, c []float32)

// momentumKernel is gj := grad[j] + wd*p[j]; v[j] = mu*v[j] - lr*gj;
// p[j] += v[j]; grad[j] = 0 for j < n.
//
//go:noescape
func momentumKernel(lr, mu, wd float32, p, grad, v *float32, n int)
