package nn

import (
	"math"
	"testing"

	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// lossOf runs a forward pass and returns the scalar loss — helper for
// numerical gradient checking.
func lossOf(m *Model, x *tensor.Dense, ys []int) float64 {
	logits := m.Forward(x, true)
	loss, _ := SoftmaxCrossEntropy(logits, ys)
	return loss
}

// checkGradients numerically verifies every parameter gradient of m on
// batch (x, ys) via central differences. float32 forward passes limit
// attainable precision, so tolerances are loose but still catch sign,
// indexing, and scaling bugs.
func checkGradients(t *testing.T, m *Model, x *tensor.Dense, ys []int) {
	t.Helper()
	for _, g := range m.Grads() { // backward accumulates
		g.Zero()
	}
	logits := m.Forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, ys)
	m.Backward(grad)

	params, grads := m.Params(), m.Grads()
	const eps = 2e-2
	checked := 0
	for pi, p := range params {
		stride := len(p.Data)/7 + 1 // sample a handful of indices per tensor
		for j := 0; j < len(p.Data); j += stride {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lp := lossOf(m, x, ys)
			p.Data[j] = orig - eps
			lm := lossOf(m, x, ys)
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(grads[pi].Data[j])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.15 {
				t.Errorf("param %d idx %d: analytic %.5f vs numeric %.5f", pi, j, analytic, numeric)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("gradient check exercised no parameters")
	}
}

func smallBatch(rng *xrand.RNG, n, dim, classes int) (*tensor.Dense, []int) {
	x := tensor.New(n, dim)
	x.Randomize(rng, 1)
	ys := make([]int, n)
	for i := range ys {
		ys[i] = rng.Intn(classes)
	}
	return x, ys
}

func TestDenseGradients(t *testing.T) {
	rng := xrand.New(1)
	m := NewModel("t", NewDense(6, 5, rng), NewReLU(), NewDense(5, 3, rng))
	x, ys := smallBatch(rng, 4, 6, 3)
	checkGradients(t, m, x, ys)
}

func TestConvGradients(t *testing.T) {
	rng := xrand.New(2)
	conv := NewConv2D(tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1}, 3, rng)
	m := NewModel("t", conv, NewReLU(), NewDense(3*4*4, 3, rng))
	x, ys := smallBatch(rng, 3, 2*6*6, 3)
	checkGradients(t, m, x, ys)
}

func TestConvStridePadGradients(t *testing.T) {
	rng := xrand.New(3)
	conv := NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 2, rng)
	// out: (8+2-3)/2+1 = 4
	m := NewModel("t", conv, NewDense(2*4*4, 2, rng))
	x, ys := smallBatch(rng, 2, 64, 2)
	checkGradients(t, m, x, ys)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := xrand.New(4)
	m := NewModel("t",
		NewDense(16, 16, rng), // gives pool a non-trivial upstream
		NewMaxPool2D(1, 4, 4, 2),
		NewDense(4, 3, rng),
	)
	x, ys := smallBatch(rng, 3, 16, 3)
	checkGradients(t, m, x, ys)
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2D(1, 2, 2, 2)
	x := tensor.FromSlice(1, 4, []float32{1, 5, 2, 3})
	y := p.Forward(x, false)
	if y.Cols != 1 || y.Data[0] != 5 {
		t.Fatalf("maxpool got %v", y.Data)
	}
	dx := p.Backward(tensor.FromSlice(1, 1, []float32{7}), true)
	want := []float32{0, 7, 0, 0}
	for i, v := range want {
		if dx.Data[i] != v {
			t.Fatalf("maxpool backward got %v", dx.Data)
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient rows must each sum to zero (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var sum float64
		for _, v := range grad.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", i, sum)
		}
	}
}

// TestSoftmaxRowsSumToOne reads the softmax back out of the loss
// gradient, (softmax - onehot)/N: every row is a probability
// distribution.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := xrand.New(5)
	logits := tensor.New(8, 10)
	logits.Randomize(rng, 3)
	labels := make([]int, logits.Rows)
	_, grad := SoftmaxCrossEntropy(logits, labels)
	for i := 0; i < grad.Rows; i++ {
		var sum float64
		for j, g := range grad.Row(i) {
			p := float64(g) * float64(grad.Rows)
			if j == labels[i] {
				p++
			}
			if p < -1e-6 {
				t.Fatalf("row %d: negative probability %v", i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w||^2 via gradient = 2w.
	w := tensor.FromSlice(1, 3, []float32{5, -4, 3})
	g := tensor.New(1, 3)
	opt := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 200; i++ {
		for j, v := range w.Data {
			g.Data[j] = 2 * v
		}
		opt.Step([]*tensor.Dense{w}, []*tensor.Dense{g})
	}
	for _, v := range w.Data {
		if math.Abs(float64(v)) > 1e-3 {
			t.Fatalf("did not converge, w = %v", w.Data)
		}
	}
}

func TestSGDZeroesGradients(t *testing.T) {
	w := tensor.FromSlice(1, 2, []float32{1, 1})
	g := tensor.FromSlice(1, 2, []float32{3, 3})
	NewSGD(0.1, 0, 0).Step([]*tensor.Dense{w}, []*tensor.Dense{g})
	if g.Data[0] != 0 || g.Data[1] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestTrainEpochLearnsSeparableData(t *testing.T) {
	rng := xrand.New(6)
	const n, dim = 256, 8
	x := tensor.New(n, dim)
	ys := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		ys[i] = cls
		for j := 0; j < dim; j++ {
			center := float32(-1)
			if cls == 1 {
				center = 1
			}
			x.Set(i, j, center+float32(rng.NormFloat64())*0.3)
		}
	}
	m := NewModel("t", NewDense(dim, 8, rng), NewReLU(), NewDense(8, 2, rng))
	opt := NewSGD(0.1, 0.9, 0)
	first := TrainEpoch(m, opt, x, ys, 16, rng)
	var last float64
	for e := 0; e < 10; e++ {
		last = TrainEpoch(m, opt, x, ys, 16, rng)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if acc := Evaluate(m, x, ys, 32); acc < 0.95 {
		t.Fatalf("accuracy %v on separable data", acc)
	}
}

func TestEvaluateEmptyAndPartialBatch(t *testing.T) {
	rng := xrand.New(7)
	m := NewModel("t", NewDense(4, 2, rng))
	if acc := Evaluate(m, tensor.New(0, 4), nil, 8); acc != 0 {
		t.Fatalf("empty eval = %v", acc)
	}
	x, ys := smallBatch(rng, 5, 4, 2)
	// batch 3 over 5 rows exercises the ragged final batch.
	if acc := Evaluate(m, x, ys, 3); acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

func TestWeightVectorRoundTrip(t *testing.T) {
	rng := xrand.New(8)
	a := NewSimpleNN(rng.Derive("a"))
	b := NewSimpleNN(rng.Derive("b"))
	if err := b.SetWeightVector(a.WeightVector()); err != nil {
		t.Fatal(err)
	}
	x, _ := smallBatch(rng, 2, ImageLen, NumClass)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	if !ya.Equal(yb) {
		t.Fatal("models differ after weight copy")
	}
}

func TestSetWeightVectorLengthMismatch(t *testing.T) {
	rng := xrand.New(9)
	m := NewSimpleNN(rng)
	if err := m.SetWeightVector(make([]float32, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestEncodeDecodeWeights(t *testing.T) {
	rng := xrand.New(10)
	w := make([]float32, 1000)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	blob := AppendWeights(nil, w)
	if len(blob) != EncodedSize(len(w)) {
		t.Fatalf("EncodedSize mismatch: %d vs %d", len(blob), EncodedSize(len(w)))
	}
	got, err := DecodeWeights(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("weight %d mismatch", i)
		}
	}
}

func TestDecodeWeightsRejectsCorruption(t *testing.T) {
	w := []float32{1, 2, 3, 4}
	cases := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] },
		"bit flip":     func(b []byte) []byte { b[12] ^= 0x40; return b },
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":  func(b []byte) []byte { b[4] = 99; return b },
		"bad checksum": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"empty":        func([]byte) []byte { return nil },
	}
	for name, corrupt := range cases {
		blob := corrupt(AppendWeights(nil, w))
		if _, err := DecodeWeights(blob); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestZooParameterCounts(t *testing.T) {
	rng := xrand.New(11)
	simple := NewSimpleNN(rng)
	if n := simple.NumParams(); n != 61670 {
		t.Fatalf("SimpleNN has %d params, want 61670 (paper: ~62K)", n)
	}
	eff := NewEffNetSim(rng)
	if n := eff.NumParams(); n <= simple.NumParams() {
		t.Fatalf("EffNetSim (%d) must be larger than SimpleNN (%d)", n, simple.NumParams())
	}
}

func TestZooForwardShapes(t *testing.T) {
	rng := xrand.New(12)
	x := tensor.New(2, ImageLen)
	x.Randomize(rng, 1)
	for _, id := range []ModelID{ModelSimpleNN, ModelEffNetSim} {
		m := id.Build(rng.Derive(id.String()))
		y := m.Forward(x, false)
		if y.Rows != 2 || y.Cols != NumClass {
			t.Fatalf("%s output %dx%d", id, y.Rows, y.Cols)
		}
	}
}

func TestModelIDValid(t *testing.T) {
	if !ModelSimpleNN.Valid() || !ModelEffNetSim.Valid() {
		t.Fatal("paper models must be valid")
	}
	if ModelID(0).Valid() || ModelID(99).Valid() {
		t.Fatal("unknown ids must be invalid")
	}
}

func TestEffNetSimGradients(t *testing.T) {
	if testing.Short() {
		t.Skip("full CNN gradient check is slow")
	}
	// In a deep float32 net with ReLU and max-pool kinks, per-coordinate
	// central differences are noisy; check directional agreement
	// (cosine similarity) over sampled coordinates instead.
	rng := xrand.New(15)
	m := NewEffNetSim(rng)
	x, ys := smallBatch(rng, 2, ImageLen, NumClass)

	logits := m.Forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, ys)
	m.Backward(grad)

	params, grads := m.Params(), m.Grads()
	const eps = 1e-2
	var dotNA, nn2, na2 float64
	for pi, p := range params {
		stride := len(p.Data)/25 + 1
		for j := 0; j < len(p.Data); j += stride {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			lp := lossOf(m, x, ys)
			p.Data[j] = orig - eps
			lm := lossOf(m, x, ys)
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(grads[pi].Data[j])
			dotNA += numeric * analytic
			nn2 += numeric * numeric
			na2 += analytic * analytic
		}
	}
	cos := dotNA / math.Sqrt(nn2*na2+1e-30)
	if cos < 0.95 {
		t.Fatalf("gradient cosine similarity %.4f < 0.95", cos)
	}
}

func BenchmarkSimpleNNTrainBatch(b *testing.B)  { benchTrain(b, ModelSimpleNN) }
func BenchmarkEffNetSimTrainBatch(b *testing.B) { benchTrain(b, ModelEffNetSim) }

func benchTrain(b *testing.B, id ModelID) {
	rng := xrand.New(1)
	m := id.Build(rng)
	opt := NewSGD(0.01, 0.9, 0)
	x, ys := smallBatch(rng, 32, ImageLen, NumClass)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(logits, ys)
		m.Backward(grad)
		opt.Step(m.Params(), m.Grads())
	}
}
