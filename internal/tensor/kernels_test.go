package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// hasAVX512 is the probe's answer, read before any test flips avx512.
var hasAVX512 = avx512

// bodies names the kernel bodies by the value of avx512 that selects
// them; "sse2" is the Go loops on every GOARCH but amd64.
var bodies = []struct {
	name string
	wide bool
}{{"sse2", false}, {"avx512", true}}

// useBody selects one body for the rest of tb, and the probe's choice
// again at its cleanup. Where the probe found no AVX-512F, the avx512
// body skips.
func useBody(tb testing.TB, wide bool) {
	if wide && !hasAVX512 {
		tb.Skipf("no AVX-512 body on %s/%s: the CPU lacks AVX-512F or its OS state, or the build has only the Go loops", runtime.GOOS, runtime.GOARCH)
	}
	avx512 = wide
	tb.Cleanup(func() { avx512 = hasAVX512 })
}

// fuzzFloats returns a generator that cycles through data: each value
// spends one selector byte on a special operand (specialFloats), a
// multiple of 1/8 in [-16, 16) — often exactly zero, so the zero skips
// fire — or the bit pattern of the next four bytes.
func fuzzFloats(data []byte) func() float32 {
	i := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[i%len(data)]
		i++
		return b
	}
	return func() float32 {
		switch s := next(); s % 4 {
		case 0:
			return specialFloats[int(s/4)%len(specialFloats)]
		case 1, 2:
			return float32(int8(next())) / 8
		default:
			return math.Float32frombits(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
		}
	}
}

// FuzzKernelsBitEqual: on fuzzed shapes up to 40, operand offsets and
// values, every kernel, on each body this CPU runs, matches its scalar
// reference loop bit for bit and writes nothing past its output.
func FuzzKernelsBitEqual(f *testing.F) {
	f.Add([]byte{3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{20, 32, 20, 3, 0x10, 0x80, 0x7f, 0xc0, 0, 0, 4, 1})
	f.Add([]byte{1, 9, 33, 2, 0, 4, 8, 12, 16, 20, 24})
	// One per tile mix of the row bodies: 20 wide, 20+4, 20+4+1, 2×20
	// and 20+4·4+3 columns, each with a different k%4.
	f.Add([]byte{2, 8, 20, 1, 0x10, 1, 2, 0x80, 4, 5})
	f.Add([]byte{3, 9, 24, 2, 9, 0, 0, 0, 0x7f, 3, 6})
	f.Add([]byte{1, 10, 25, 3, 1, 2, 0, 1, 0xc0, 4})
	f.Add([]byte{2, 11, 40, 0, 5, 0, 9, 0x20, 0x81, 2, 7})
	f.Add([]byte{4, 7, 39, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, k, m, off := int(data[0])%41, int(data[1])%41, int(data[2])%41, int(data[3])%4
		next := fuzzFloats(data[4:])
		fill := func(rows, cols int) *Dense {
			d := New(rows, cols)
			for i := range d.Data {
				d.Data[i] = next()
			}
			return d
		}
		a, at, b, c0 := fill(n, k), fill(k, n), fill(k, m), fill(n, m)
		alpha, x, y := next(), fill(k, m).Data, fill(k, m).Data
		lr, mu, wd, p, g, v := next(), next(), next(), fill(n, m).Data, fill(n, m).Data, fill(n, m).Data
		defer func() { avx512 = hasAVX512 }()
		for _, body := range bodies {
			if body.wide && !hasAVX512 {
				continue // no AVX-512 body here; TestKernelsBitEqualReference logs the skip
			}
			avx512 = body.wide
			label := fmt.Sprintf("%s %dx%dx%d off=%d", body.name, n, k, m, off)
			checkGEMMs(t, label, a, at, b, c0, off)
			checkAxpy(t, label, alpha, x, y, off)
			checkMomentum(t, label, lr, mu, wd, p, g, v, off)
		}
	})
}

// TestGEMMsStartAtPositiveZero: MatMul and MatMulTransB start every
// accumulator at +0, never at c's old value or at the first term, so a
// row of a that is all ±0 and a row whose every product is −0 both
// write the bits 0x00000000. Aggregator.Decide's reuse of the filter
// score relies on it (DESIGN.md §13): no forward pass may see the sign
// of a zero weight.
func TestGEMMsStartAtPositiveZero(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			useBody(t, body.wide)
			checkPositiveZeroStart(t)
		})
	}
}

// checkPositiveZeroStart is TestGEMMsStartAtPositiveZero on the body
// selected: a has two rows, one pass of a paired body.
func checkPositiveZeroStart(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	negZeros := func(rows, cols int) *Dense {
		d := New(rows, cols)
		for i := range d.Data {
			d.Data[i] = negZero
		}
		return d
	}
	for _, m := range []int{1, 3, 4, 20, 25, 41} {
		for _, k := range []int{1, 4, 6, 8, 11} {
			a := New(2, k) // row 0 alternates +0 and −0, row 1 is positive
			for p := range k {
				if p%2 == 1 {
					a.Set(0, p, negZero)
				}
				a.Set(1, p, float32(p+1))
			}
			for _, g := range []struct {
				name string
				run  func(c *Dense)
			}{
				{"MatMul", func(c *Dense) { MatMul(a, negZeros(k, m), c) }},
				{"MatMulTransB", func(c *Dense) { MatMulTransB(a, negZeros(m, k), c) }},
			} {
				c := negZeros(2, m) // stale −0 must be overwritten
				g.run(c)
				for i, v := range c.Data {
					if bits := math.Float32bits(v); bits != 0 {
						t.Fatalf("%s k=%d m=%d: element %d = %#08x, want +0", g.name, k, m, i, bits)
					}
				}
			}
		}
	}
}

// TestKernelWrappersPanicOnShortOperands: the kernel bodies walk raw
// pointers, so every exported entry to them checks its operands'
// lengths first. A short operand whose spare capacity would let a row
// slice reach past its length must panic, and nothing may be written
// into that capacity.
func TestKernelWrappersPanicOnShortOperands(t *testing.T) {
	vec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	full := func(rows, cols int) *Dense { return FromSlice(rows, cols, vec(rows*cols)) }
	short := func(rows, cols int) *Dense {
		return &Dense{Rows: rows, Cols: cols, Data: unaligned(vec(rows*cols-1), 0)}
	}
	type op struct {
		name  string
		run   func()
		watch []float32 // a short operand whose spare capacity must stay untouched
	}
	var ops []op
	for _, g := range []struct {
		name string
		run  func(a, b, c *Dense)
		a, b [2]int // a 2x4 times a 4x5, each stored as its kernel reads it
	}{
		{"MatMul", MatMul, [2]int{2, 4}, [2]int{4, 5}},
		{"MatMulAdd", MatMulAdd, [2]int{2, 4}, [2]int{4, 5}},
		{"MatMulTransA", MatMulTransA, [2]int{4, 2}, [2]int{4, 5}},
		{"MatMulTransAAdd", MatMulTransAAdd, [2]int{4, 2}, [2]int{4, 5}},
		{"MatMulTransB", MatMulTransB, [2]int{2, 4}, [2]int{5, 4}},
	} {
		a, b, c := short(g.a[0], g.a[1]), short(g.b[0], g.b[1]), short(2, 5)
		fa, fb := full(g.a[0], g.a[1]), full(g.b[0], g.b[1])
		ops = append(ops,
			op{g.name + " short a", func() { g.run(a, fb, full(2, 5)) }, a.Data},
			op{g.name + " short b", func() { g.run(fa, b, full(2, 5)) }, b.Data},
			op{g.name + " short c", func() { g.run(fa, fb, c) }, c.Data})
	}
	y, v := unaligned(vec(7), 0), unaligned(vec(7), 0)
	ops = append(ops,
		op{"Axpy len(y) < len(x)", func() { Axpy(1, vec(8), y) }, y},
		op{"Axpy len(x) < len(y)", func() { Axpy(1, vec(6), y) }, y},
		op{"MomentumStep short velocity", func() { MomentumStep(0.1, 0.9, 0, vec(8), vec(8), v) }, v},
		op{"MomentumStep short gradient", func() { MomentumStep(0.1, 0.9, 0, vec(8), v, vec(8)) }, v},
	)
	for _, o := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", o.name)
				}
			}()
			o.run()
		}()
		checkGuard(t, o.name, o.watch)
	}
}
