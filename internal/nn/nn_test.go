package nn

import (
	"math"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname

	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// lossOf runs a forward pass and returns the scalar loss — helper for
// numerical gradient checking.
func lossOf(m *Model, x *tensor.Dense, ys []int) float64 {
	logits := m.Forward(x)
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
	logits := m.Forward(x)
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
	m := NewModel(NewDense(6, 5, rng), NewReLU(), NewDense(5, 3, rng))
	x, ys := smallBatch(rng, 4, 6, 3)
	checkGradients(t, m, x, ys)
}

func TestConvGradients(t *testing.T) {
	rng := xrand.New(2)
	conv := NewConv2D(tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1}, 3, rng)
	m := NewModel(conv, NewReLU(), NewDense(3*4*4, 3, rng))
	x, ys := smallBatch(rng, 3, 2*6*6, 3)
	checkGradients(t, m, x, ys)
}

func TestConvStridePadGradients(t *testing.T) {
	rng := xrand.New(3)
	conv := NewConv2D(tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 2, rng)
	// out: (8+2-3)/2+1 = 4
	m := NewModel(conv, NewDense(2*4*4, 2, rng))
	x, ys := smallBatch(rng, 2, 64, 2)
	checkGradients(t, m, x, ys)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := xrand.New(4)
	m := NewModel(
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
	y := p.Forward(x)
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
	m := NewModel(NewDense(dim, 8, rng), NewReLU(), NewDense(8, 2, rng))
	opt := NewSGD(0.1, 0.9, 0)
	var scratch EpochScratch
	first := TrainEpochScratch(m, opt, x, ys, 16, rng, &scratch)
	var last float64
	for e := 0; e < 10; e++ {
		last = TrainEpochScratch(m, opt, x, ys, 16, rng, &scratch)
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
	m := NewModel(NewDense(4, 2, rng))
	if acc := Evaluate(m, tensor.New(0, 4), nil, 8); acc != 0 {
		t.Fatalf("empty eval = %v", acc)
	}
	x, ys := smallBatch(rng, 5, 4, 2)
	// batch 3 over 5 rows exercises the ragged final batch.
	if acc := Evaluate(m, x, ys, 3); acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

// TestArgmaxFirstMaximumWins: a tie predicts the lower class.
func TestArgmaxFirstMaximumWins(t *testing.T) {
	if got := argmax([]float32{1, 3, 3, 2}); got != 1 {
		t.Fatalf("argmax of a tie at 1 and 2 = %d, want 1", got)
	}
	if got := argmax([]float32{-2}); got != 0 {
		t.Fatalf("argmax of one logit = %d", got)
	}
}

// TestEvaluateRaggedBatchReusesBuffers: a ragged final batch reshapes
// the layers' buffers in place, and Evaluate counts matches straight
// from the logits through one view header, so after warm-up SimpleNN's
// Evaluate over 128 rows (two full batches of 64) and over 120 rows
// (64 and 56) allocates at most that header a call.
func TestEvaluateRaggedBatchReusesBuffers(t *testing.T) {
	rng := xrand.New(9)
	m := NewSimpleNN(rng.Derive("model"))
	x, ys := smallBatch(rng, 128, ImageLen, NumClass)
	for _, rows := range []int{128, 120} {
		view := tensor.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
		Evaluate(m, view, ys[:rows], 64) // warm-up
		if allocs := testing.AllocsPerRun(20, func() { Evaluate(m, view, ys[:rows], 64) }); allocs > 1 {
			t.Fatalf("Evaluate over %d rows: %v allocs a call, want at most 1", rows, allocs)
		}
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
	ya := a.Forward(x)
	yb := b.Forward(x)
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
	if n := simple.numParams(); n != 61670 {
		t.Fatalf("SimpleNN has %d params, want 61670 (paper: ~62K)", n)
	}
	eff := newEffNetSim(rng)
	if n := eff.numParams(); n <= simple.numParams() {
		t.Fatalf("EffNetSim (%d) must be larger than SimpleNN (%d)", n, simple.numParams())
	}
}

// TestZooMulAdds: a sample's forward pass is 3072·20 + 20·10
// multiply-adds through SimpleNN, and 16·14·14·75 + 32·5·5·144 +
// 800·128 + 128·10 through EffNetSim.
func TestZooMulAdds(t *testing.T) {
	for id, want := range map[ModelID]int{ModelSimpleNN: 61_640, ModelEffNetSim: 454_080} {
		if got := id.Build(nil).MulAdds(); got != want {
			t.Errorf("%v: %d multiply-adds per sample, want %d", id, got, want)
		}
	}
}

func TestZooForwardShapes(t *testing.T) {
	rng := xrand.New(12)
	x := tensor.New(2, ImageLen)
	x.Randomize(rng, 1)
	for _, id := range []ModelID{ModelSimpleNN, ModelEffNetSim} {
		m := id.Build(rng.Derive(id.String()))
		y := m.Forward(x)
		if y.Rows != 2 || y.Cols != NumClass {
			t.Fatalf("%s output %dx%d", id, y.Rows, y.Cols)
		}
	}
}

// TestBuildNilZeroWeights: Build(nil) is the seeded build's shape with
// every weight zero, so it drew no He initialization.
func TestBuildNilZeroWeights(t *testing.T) {
	for _, id := range []ModelID{ModelSimpleNN, ModelEffNetSim} {
		want := len(id.Build(xrand.New(3)).WeightVector())
		w := id.Build(nil).WeightVector()
		if len(w) != want {
			t.Fatalf("%s: Build(nil) has %d weights, the seeded build %d", id, len(w), want)
		}
		for i, v := range w {
			if v != 0 || math.Signbit(float64(v)) {
				t.Fatalf("%s: Build(nil) weight %d is %v, want +0", id, i, v)
			}
		}
	}
}

// TestEvaluationHoldsNoGradients: a model built with Build(nil) that
// only runs Forward allocates its weights and its activations, and no
// gradients; the first Grads call allocates them, zeroed and shaped
// like the weights.
func TestEvaluationHoldsNoGradients(t *testing.T) {
	for _, id := range []ModelID{ModelSimpleNN, ModelEffNetSim} {
		x := tensor.New(2, ImageLen)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := id.Build(nil)
		m.Forward(x)
		runtime.ReadMemStats(&after)
		// Two samples' activations are under half the weights of either
		// model; gradients would add the weights again.
		weights, got := uint64(4*m.numParams()), after.TotalAlloc-before.TotalAlloc
		if got < weights || got >= weights+weights/2 {
			t.Errorf("%s: Build(nil) + Forward allocated %d bytes, want weights (%d) and activations only", id, got, weights)
		}
		params := m.Params()
		for i, g := range m.Grads() {
			if g.Rows != params[i].Rows || g.Cols != params[i].Cols {
				t.Fatalf("%s: gradient %d is %dx%d, its weights %dx%d", id, i, g.Rows, g.Cols, params[i].Rows, params[i].Cols)
			}
			for _, v := range g.Data {
				if v != 0 {
					t.Fatalf("%s: gradient %d not zero before any Backward", id, i)
				}
			}
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
	m := newEffNetSim(rng)
	x, ys := smallBatch(rng, 2, ImageLen, NumClass)

	logits := m.Forward(x)
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

// tensorAVX512 is tensor's unexported body switch, flipped here so one
// run times a minibatch on both kernel bodies.
//
//go:linkname tensorAVX512 waitornot/internal/tensor.avx512
var tensorAVX512 bool

// BenchmarkSimpleNNTrainBatch times one minibatch on the SSE2 bodies
// and on the AVX-512 ones; the second skips on a CPU without AVX-512F.
func BenchmarkSimpleNNTrainBatch(b *testing.B) {
	probed := tensorAVX512
	defer func() { tensorAVX512 = probed }()
	for _, body := range []struct {
		name string
		wide bool
	}{{"sse2", false}, {"avx512", true}} {
		b.Run(body.name, func(b *testing.B) {
			if body.wide && !probed {
				b.Skipf("no AVX-512 body on %s/%s: the CPU lacks AVX-512F or its OS state, or the build has only the Go loops", runtime.GOOS, runtime.GOARCH)
			}
			tensorAVX512 = body.wide
			benchTrain(b, ModelSimpleNN)
		})
	}
}

func BenchmarkEffNetSimTrainBatch(b *testing.B) { benchTrain(b, ModelEffNetSim) }

func benchTrain(b *testing.B, id ModelID) {
	rng := xrand.New(1)
	m := id.Build(rng)
	opt := NewSGD(0.01, 0.9, 0)
	x, ys := smallBatch(rng, 32, ImageLen, NumClass)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x)
		_, grad := SoftmaxCrossEntropy(logits, ys)
		m.Backward(grad)
		opt.Step(m.Params(), m.Grads())
	}
}
