// Package nn is a compact neural-network training stack: a Layer
// interface, dense/convolutional/pooling layers, softmax cross-entropy,
// SGD with momentum, and flat-vector weight (de)serialization.
//
// It stands in for the paper's PyTorch dependency. Federated averaging
// only needs deterministic local SGD plus the ability to flatten a
// model's weights into one vector and restore them, which is exactly the
// surface this package provides. All data is float32, in the same
// precision model weights travel on-chain.
//
// Data layout: a batch is a tensor.Dense with one flattened sample per
// row. Image samples are flattened CHW (channel-major), matching what
// convolutional layers expect.
package nn

import (
	"fmt"

	"waitornot/internal/tensor"
)

// Layer is one differentiable stage of a sequential model.
//
// Forward consumes a batch (one sample per row) and returns the layer
// output, caching whatever it needs for the matching Backward call.
// Backward consumes dLoss/dOutput, accumulates parameter gradients into
// the tensors returned by Grads, and — when the caller says it will read
// it — returns dLoss/dInput. A Forward must precede each Backward.
type Layer interface {
	// Name identifies the layer in error messages and dumps.
	Name() string
	// Forward runs the layer on a batch.
	Forward(x *tensor.Dense) *tensor.Dense
	// Backward propagates gradients; it must be called after Forward.
	// With needInput false the caller promises not to read the result
	// (it is unspecified, possibly nil) and the layer may skip computing
	// dLoss/dInput; parameter gradients are the same bits either way.
	Backward(dout *tensor.Dense, needInput bool) *tensor.Dense
	// Params returns the learnable tensors (possibly empty).
	Params() []*tensor.Dense
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Dense
}

// Model is a sequential stack of layers. The layer topology is fixed at
// construction; Params/Grads results are cached on first use.
type Model struct {
	Layers []Layer

	params, grads []*tensor.Dense // cached flattened views, built lazily
}

// NewModel builds a sequential model from layers.
func NewModel(layers ...Layer) *Model {
	return &Model{Layers: layers}
}

// MulAdds is the model's forward multiply-adds per sample: In × Out a
// Dense layer, output size × kernel volume a Conv2D.
func (m *Model) MulAdds() (n int) {
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Dense:
			n += l.In * l.Out
		case *Conv2D:
			n += l.outLen() * l.Geom.InC * l.Geom.KH * l.Geom.KW
		}
	}
	return n
}

// Forward runs the whole stack on a batch.
func (m *Model) Forward(x *tensor.Dense) *tensor.Dense {
	out := x
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates a loss gradient through the stack. Nothing
// precedes the first layer, so its input gradient — for SimpleNN's
// dense(3072->20) the largest product of the whole pass — is not asked
// for.
func (m *Model) Backward(dout *tensor.Dense) {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dout = m.Layers[i].Backward(dout, i > 0)
	}
}

// Params returns all learnable tensors in layer order. The slice is
// cached (it is requested once per optimizer step); callers must not
// mutate it.
func (m *Model) Params() []*tensor.Dense {
	if m.params == nil {
		for _, l := range m.Layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// Grads returns all gradient tensors in layer order. The slice is
// cached; callers must not mutate it.
func (m *Model) Grads() []*tensor.Dense {
	if m.grads == nil {
		for _, l := range m.Layers {
			m.grads = append(m.grads, l.Grads()...)
		}
	}
	return m.grads
}

// numParams returns the total learnable parameter count.
func (m *Model) numParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// WeightVector flattens all parameters into one newly allocated vector,
// in deterministic layer order.
func (m *Model) WeightVector() []float32 {
	out := make([]float32, 0, m.numParams())
	for _, p := range m.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// SetWeightVector restores parameters from a flat vector produced by
// WeightVector on an identically shaped model.
func (m *Model) SetWeightVector(w []float32) error {
	if len(w) != m.numParams() {
		return fmt.Errorf("nn: weight vector length %d, model has %d parameters", len(w), m.numParams())
	}
	off := 0
	for _, p := range m.Params() {
		copy(p.Data, w[off:off+len(p.Data)])
		off += len(p.Data)
	}
	return nil
}

// argmax is the class a row of logits predicts: the index of its
// largest value, the first on a tie.
func argmax(row []float32) int {
	best, bestV := 0, row[0]
	for j, v := range row[1:] {
		if v > bestV {
			best, bestV = j+1, v
		}
	}
	return best
}
