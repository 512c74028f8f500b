package tensor

import (
	"fmt"
	"math"
	"testing"
)

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
// values, every kernel matches its scalar reference loop bit for bit
// and writes nothing past its output.
func FuzzKernelsBitEqual(f *testing.F) {
	f.Add([]byte{3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{20, 32, 20, 3, 0x10, 0x80, 0x7f, 0xc0, 0, 0, 4, 1})
	f.Add([]byte{1, 9, 33, 2, 0, 4, 8, 12, 16, 20, 24})
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
		label := fmt.Sprintf("%dx%dx%d off=%d", n, k, m, off)
		checkGEMMs(t, label, fill(n, k), fill(k, n), fill(k, m), fill(n, m), off)
		checkAxpy(t, label, next(), fill(k, m).Data, fill(k, m).Data, off)
		checkMomentum(t, label, next(), next(), next(), fill(n, m).Data, fill(n, m).Data, fill(n, m).Data, off)
	})
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
		a    *Dense // a 2x4 product, stored transposed for the TransA kernels
	}{
		{"MatMul", MatMul, full(2, 4)},
		{"MatMulAdd", MatMulAdd, full(2, 4)},
		{"MatMulTransA", MatMulTransA, full(4, 2)},
		{"MatMulTransAAdd", MatMulTransAAdd, full(4, 2)},
	} {
		b, c := short(4, 5), short(2, 5)
		ops = append(ops,
			op{g.name + " short b", func() { g.run(g.a, b, full(2, 5)) }, b.Data},
			op{g.name + " short c", func() { g.run(g.a, full(4, 5), c) }, c.Data})
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
