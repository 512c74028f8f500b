package nn_test

// An external test package: internal/dataset imports internal/nn, so
// only nn_test can train a zoo model on dataset.Generate data.

import (
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"waitornot/internal/dataset"
	"waitornot/internal/nn"
	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// trainedBits are nn.HashWeights of each zoo model after two epochs of
// three minibatches (below), recorded at commit 82dcc7d — the last one
// whose Backward computed every input gradient and whose
// weight-gradient kernels took one p per pass. A kernel or layer change
// that moves a single trained bit of either architecture moves these.
var trainedBits = map[nn.ModelID]string{
	nn.ModelSimpleNN:  "aa1094c4c0c61d706bcb38c0875c4038578bb90b6323cee90e9f4a2f6ba21bd4",
	nn.ModelEffNetSim: "bef5008dced0e69d6bdbc95c7dcf6c7c5077c85ff829020477ca0474370794a5",
}

// goldenStream labels each model's RNG stream below: ModelID.String as
// it read when the goldens were recorded (it has since taken the public
// spelling "EffNetB0Sim").
var goldenStream = map[nn.ModelID]string{nn.ModelSimpleNN: "SimpleNN", nn.ModelEffNetSim: "EffNetSim"}

func TestTrainedBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		// amd64 runs the SSE2 kernel bodies, 386 the scalar Go loops:
		// one golden holds both. Other targets may fuse multiply-adds.
		t.Skip("goldens hold on amd64 and 386; other targets may fuse multiply-adds")
	}
	for _, id := range []nn.ModelID{nn.ModelSimpleNN, nn.ModelEffNetSim} {
		rng := xrand.New(19).Derive(goldenStream[id])
		m := id.Build(rng.Derive("init"))
		set := dataset.Generate(dataset.DefaultConfig(), 96, rng.Derive("data"))
		opt := nn.NewSGD(0.01, 0.9, 1e-3)
		var scratch nn.EpochScratch
		for e := 0; e < 2; e++ {
			loss := nn.TrainEpochScratch(m, opt, set.X, set.Y, 32, rng.Derive(fmt.Sprintf("epoch-%d", e)), &scratch)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("%s: epoch %d loss %v pins nothing", id, e, loss)
			}
		}
		sum := nn.HashWeights(m.WeightVector())
		if got := hex.EncodeToString(sum[:]); got != trainedBits[id] {
			t.Errorf("%s: trained weights hash %s, golden %s", id, got, trainedBits[id])
		}
	}
}

// TestBackwardSkipsOnlyTheInputGradient: Model.Backward does not ask
// its first layer for dLoss/dInput; every parameter gradient must be
// the bits a walk that asks every layer produces. Arch-independent —
// both sides run the same kernels.
func TestBackwardSkipsOnlyTheInputGradient(t *testing.T) {
	for _, id := range []nn.ModelID{nn.ModelSimpleNN, nn.ModelEffNetSim} {
		rng := xrand.New(23).Derive(id.String())
		set := dataset.Generate(dataset.DefaultConfig(), 8, rng.Derive("data"))
		grads := func(backward func(m *nn.Model, dout *tensor.Dense)) []float32 {
			m := id.Build(rng.Derive("init"))
			_, dout := nn.SoftmaxCrossEntropy(m.Forward(set.X, true), set.Y)
			backward(m, dout)
			var flat []float32
			for _, g := range m.Grads() {
				flat = append(flat, g.Data...)
			}
			return flat
		}
		got := grads((*nn.Model).Backward)
		want := grads(func(m *nn.Model, dout *tensor.Dense) {
			for i := len(m.Layers) - 1; i >= 0; i-- {
				if dout = m.Layers[i].Backward(dout, true); dout == nil {
					t.Fatalf("%s: %s returned no input gradient when asked", id, m.Layers[i].Name())
				}
			}
		})
		nonZero := false
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: gradient element %d = %v, full walk %v", id, i, got[i], want[i])
			}
			nonZero = nonZero || want[i] != 0
		}
		if !nonZero {
			t.Fatalf("%s: all-zero gradients pin nothing", id)
		}
	}
}
