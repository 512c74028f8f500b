package nn

import (
	"fmt"

	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// Dense is a fully connected layer: y = x*W + b.
// W is stored In x Out so the forward pass is a plain row-major GEMM.
type Dense struct {
	In, Out int
	W, B    *tensor.Dense
	dW, dB  *tensor.Dense

	x  *tensor.Dense // cached input for backward
	y  *tensor.Dense // reused output buffer
	dx *tensor.Dense // reused input-gradient buffer
}

var _ Layer = (*Dense)(nil)

// NewDense builds a Dense layer with He-initialized weights.
func NewDense(in, out int, rng *xrand.RNG) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
	d.W.Randomize(rng, heStd(in))
	return d
}

func heStd(fanIn int) float64 {
	return sqrt2 / sqrtf(float64(fanIn))
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Dense, _ bool) *tensor.Dense {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: %s got input width %d", d.Name(), x.Cols))
	}
	d.x = x
	if d.y == nil || d.y.Rows != x.Rows {
		d.y = tensor.New(x.Rows, d.Out)
	}
	tensor.MatMul(x, d.W, d.y)
	tensor.AddRowVector(d.y, d.B.Data)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Dense, needInput bool) *tensor.Dense {
	// dW += xᵀ * dout ; dB += column sums ; dx = dout * Wᵀ.
	// Gradients accumulate in place and dx reuses a persistent buffer:
	// this runs once per minibatch, and fresh scratch matrices here
	// used to dominate the training allocation profile.
	tensor.MatMulTransAAdd(d.x, dout, d.dW)
	tensor.AddColSums(dout, d.dB.Data)
	if !needInput {
		return nil
	}
	if d.dx == nil || d.dx.Rows != dout.Rows {
		d.dx = tensor.New(dout.Rows, d.In)
	}
	tensor.MatMulTransB(dout, d.W, d.dx)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Dense { return []*tensor.Dense{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Dense { return []*tensor.Dense{d.dW, d.dB} }

// ReLU is the elementwise rectifier.
type ReLU struct {
	mask []bool
	y    *tensor.Dense
	dx   *tensor.Dense
}

var _ Layer = (*ReLU)(nil)

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Dense, _ bool) *tensor.Dense {
	if r.y == nil || r.y.Rows != x.Rows || r.y.Cols != x.Cols {
		r.y = tensor.New(x.Rows, x.Cols)
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		if v > 0 {
			r.y.Data[i] = v
			r.mask[i] = true
		} else {
			r.y.Data[i] = 0
			r.mask[i] = false
		}
	}
	return r.y
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Dense, _ bool) *tensor.Dense {
	if r.dx == nil || r.dx.Rows != dout.Rows || r.dx.Cols != dout.Cols {
		r.dx = tensor.New(dout.Rows, dout.Cols)
	}
	for i, v := range dout.Data {
		if r.mask[i] {
			r.dx.Data[i] = v
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Dense { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Dense { return nil }

// Conv2D is a 2-D convolution over flattened-CHW rows, implemented as
// im2col + GEMM. Weights are stored OutC x (InC*KH*KW).
type Conv2D struct {
	Geom   tensor.ConvGeom
	OutC   int
	W, B   *tensor.Dense
	dW, dB *tensor.Dense

	x     *tensor.Dense // cached input batch
	y     *tensor.Dense
	cols  *tensor.Dense // reused per-sample patch matrix
	dx    *tensor.Dense // reused input-gradient buffer
	dcols *tensor.Dense // reused patch-gradient matrix
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D builds a convolution layer with He-initialized weights.
// It panics on degenerate geometry — layer construction is programmer
// error territory, not runtime input.
func NewConv2D(g tensor.ConvGeom, outC int, rng *xrand.RNG) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	c := &Conv2D{
		Geom: g, OutC: outC,
		W:  tensor.New(outC, g.PatchLen()),
		B:  tensor.New(1, outC),
		dW: tensor.New(outC, g.PatchLen()),
		dB: tensor.New(1, outC),
	}
	c.W.Randomize(rng, heStd(g.PatchLen()))
	return c
}

// OutLen returns the flattened output sample length (OutC*OutH*OutW).
func (c *Conv2D) OutLen() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv(%dx%dx%d->%d,k%dx%d,s%d)", c.Geom.InC, c.Geom.InH, c.Geom.InW,
		c.OutC, c.Geom.KH, c.Geom.KW, c.Geom.Stride)
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Dense, _ bool) *tensor.Dense {
	inLen := c.Geom.InC * c.Geom.InH * c.Geom.InW
	if x.Cols != inLen {
		panic(fmt.Sprintf("nn: %s got input width %d, want %d", c.Name(), x.Cols, inLen))
	}
	c.x = x
	op := c.Geom.OutH() * c.Geom.OutW()
	if c.y == nil || c.y.Rows != x.Rows {
		c.y = tensor.New(x.Rows, c.OutLen())
	}
	if c.cols == nil {
		c.cols = tensor.New(op, c.Geom.PatchLen())
	}
	for s := 0; s < x.Rows; s++ {
		tensor.Im2Col(c.Geom, x.Row(s), c.cols)
		// ys = W * colsᵀ gives OutC x OP, which flattens directly to CHW.
		ys := tensor.FromSlice(c.OutC, op, c.y.Row(s))
		tensor.MatMulTransB(c.W, c.cols, ys)
		for ch := 0; ch < c.OutC; ch++ {
			b := c.B.Data[ch]
			row := ys.Row(ch)
			for i := range row {
				row[i] += b
			}
		}
	}
	return c.y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Dense, needInput bool) *tensor.Dense {
	op := c.Geom.OutH() * c.Geom.OutW()
	if needInput {
		if c.dx == nil || c.dx.Rows != dout.Rows {
			c.dx = tensor.New(dout.Rows, c.Geom.InC*c.Geom.InH*c.Geom.InW)
		}
		c.dx.Zero() // Col2Im accumulates into overlapping windows
		if c.dcols == nil {
			c.dcols = tensor.New(op, c.Geom.PatchLen())
		}
	}
	for s := 0; s < dout.Rows; s++ {
		douts := tensor.FromSlice(c.OutC, op, dout.Row(s))
		// Recompute the patch matrix; it is cheaper than caching one
		// per sample across the batch.
		tensor.Im2Col(c.Geom, c.x.Row(s), c.cols)
		// dW += douts * cols  (OutC x OP)*(OP x P).
		tensor.MatMulAdd(douts, c.cols, c.dW)
		for ch := 0; ch < c.OutC; ch++ {
			var sum float32
			for _, v := range douts.Row(ch) {
				sum += v
			}
			c.dB.Data[ch] += sum
		}
		if needInput {
			// dcols = doutsᵀ * W  (OP x OutC)*(OutC x P).
			tensor.MatMulTransA(douts, c.W, c.dcols)
			tensor.Col2Im(c.Geom, c.dcols, c.dx.Row(s))
		}
	}
	if !needInput {
		return nil
	}
	return c.dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Dense { return []*tensor.Dense{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Dense { return []*tensor.Dense{c.dW, c.dB} }

// MaxPool2D is a non-overlapping Size x Size max pool over flattened-CHW
// rows.
type MaxPool2D struct {
	C, H, W int
	Size    int

	argmax []int32 // per output element, index into the input sample
	y      *tensor.Dense
	dx     *tensor.Dense
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D builds a pooling layer. H and W must be divisible by size.
func NewMaxPool2D(c, h, w, size int) *MaxPool2D {
	if size <= 0 || h%size != 0 || w%size != 0 {
		panic(fmt.Sprintf("nn: maxpool size %d does not divide %dx%d", size, h, w))
	}
	return &MaxPool2D{C: c, H: h, W: w, Size: size}
}

// OutLen returns the flattened output sample length.
func (p *MaxPool2D) OutLen() int { return p.C * (p.H / p.Size) * (p.W / p.Size) }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%d)", p.Size) }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Dense, _ bool) *tensor.Dense {
	inLen := p.C * p.H * p.W
	if x.Cols != inLen {
		panic(fmt.Sprintf("nn: %s got input width %d, want %d", p.Name(), x.Cols, inLen))
	}
	oh, ow := p.H/p.Size, p.W/p.Size
	outLen := p.OutLen()
	if p.y == nil || p.y.Rows != x.Rows {
		p.y = tensor.New(x.Rows, outLen)
		p.argmax = make([]int32, x.Rows*outLen)
	}
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := p.y.Row(s)
		am := p.argmax[s*outLen : (s+1)*outLen]
		for c := 0; c < p.C; c++ {
			plane := c * p.H * p.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := plane + (oy*p.Size)*p.W + ox*p.Size
					best := in[bestIdx]
					for ky := 0; ky < p.Size; ky++ {
						rowBase := plane + (oy*p.Size+ky)*p.W + ox*p.Size
						for kx := 0; kx < p.Size; kx++ {
							if v := in[rowBase+kx]; v > best {
								best, bestIdx = v, rowBase+kx
							}
						}
					}
					o := c*oh*ow + oy*ow + ox
					out[o] = best
					am[o] = int32(bestIdx)
				}
			}
		}
	}
	return p.y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dout *tensor.Dense, _ bool) *tensor.Dense {
	outLen := p.OutLen()
	if p.dx == nil || p.dx.Rows != dout.Rows {
		p.dx = tensor.New(dout.Rows, p.C*p.H*p.W)
	}
	p.dx.Zero() // gradients scatter-add through argmax
	dx := p.dx
	for s := 0; s < dout.Rows; s++ {
		am := p.argmax[s*outLen : (s+1)*outLen]
		din := dx.Row(s)
		for o, g := range dout.Row(s) {
			din[am[o]] += g
		}
	}
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Dense { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Dense { return nil }
