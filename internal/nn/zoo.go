package nn

import (
	"fmt"

	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// Input geometry shared by both paper models: 32x32 RGB images,
// 10 classes (the CIFAR-10 shape).
const (
	ImageC    = 3
	ImageH    = 32
	ImageW    = 32
	ImageLen  = ImageC * ImageH * ImageW
	NumClass  = 10
	hiddenMLP = 20
)

// ModelID names one of the two architectures evaluated in the paper.
type ModelID int

// The two architectures from the paper's evaluation.
const (
	// ModelSimpleNN is the paper's "Simple NN": a from-scratch MLP with
	// ~62K parameters (3072 -> 20 -> 10 = 61,670 here; the paper reports
	// 62K / 248 KB).
	ModelSimpleNN ModelID = iota + 1
	// ModelEffNetSim stands in for EfficientNet-B0. The paper's 5.3M
	// parameter network is intractable in pure Go on one CPU; this is a
	// compact CNN (~110K parameters) whose backbone is pretrained and
	// fine-tuned, preserving the "complex model, warm start, larger
	// payload" role (see DESIGN.md substitution table).
	ModelEffNetSim
)

// String implements fmt.Stringer with the public spellings: the root
// package's Model is this type.
func (id ModelID) String() string {
	switch id {
	case ModelSimpleNN:
		return "SimpleNN"
	case ModelEffNetSim:
		return "EffNetB0Sim"
	default:
		return fmt.Sprintf("Model(%d)", int(id))
	}
}

// Valid reports whether id names a known architecture.
func (id ModelID) Valid() bool { return id == ModelSimpleNN || id == ModelEffNetSim }

// Build constructs a freshly initialized instance of the architecture,
// drawing initial weights from rng.
func (id ModelID) Build(rng *xrand.RNG) *Model {
	switch id {
	case ModelSimpleNN:
		return NewSimpleNN(rng)
	case ModelEffNetSim:
		return NewEffNetSim(rng)
	default:
		panic(fmt.Sprintf("nn: unknown model id %d", int(id)))
	}
}

// NewSimpleNN builds the paper's simple model: a one-hidden-layer MLP.
func NewSimpleNN(rng *xrand.RNG) *Model {
	return NewModel("SimpleNN",
		NewDense(ImageLen, hiddenMLP, rng.Derive("fc1")),
		NewReLU(),
		NewDense(hiddenMLP, NumClass, rng.Derive("fc2")),
	)
}

// NewEffNetSim builds the compact CNN standing in for EfficientNet-B0:
//
//	conv 3->16 5x5 stride 2  (32x32 -> 14x14)
//	relu, maxpool 2          (14x14 -> 7x7)
//	conv 16->32 3x3          (7x7 -> 5x5)
//	relu
//	dense 800 -> 128, relu
//	dense 128 -> 10
//
// ~110K parameters; the convolutional backbone is what transfer
// learning pretrains (see Pretrain in the dataset harness).
func NewEffNetSim(rng *xrand.RNG) *Model {
	conv1 := NewConv2D(tensor.ConvGeom{
		InC: ImageC, InH: ImageH, InW: ImageW, KH: 5, KW: 5, Stride: 2,
	}, 16, rng.Derive("conv1"))
	pool1 := NewMaxPool2D(16, 14, 14, 2)
	conv2 := NewConv2D(tensor.ConvGeom{
		InC: 16, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 1,
	}, 32, rng.Derive("conv2"))
	return NewModel("EffNetSim",
		conv1,
		NewReLU(),
		pool1,
		conv2,
		NewReLU(),
		NewDense(32*5*5, 128, rng.Derive("fc1")),
		NewReLU(),
		NewDense(128, NumClass, rng.Derive("fc2")),
	)
}
