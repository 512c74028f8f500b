package fl

import (
	"fmt"

	"waitornot/internal/dataset"
	"waitornot/internal/nn"
	"waitornot/internal/xrand"
)

// Hyper bundles the local-training hyperparameters of one architecture.
type Hyper struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	BatchSize   int
	LocalEpochs int
}

// DefaultHyper returns the calibrated hyperparameters for a paper
// model. Both models train five local epochs per round, the paper's
// protocol.
func DefaultHyper(id nn.ModelID) Hyper {
	switch id {
	case nn.ModelSimpleNN:
		return Hyper{LR: 3e-4, Momentum: 0.9, WeightDecay: 1e-3, BatchSize: 32, LocalEpochs: 5}
	case nn.ModelEffNetSim:
		return Hyper{LR: 1e-3, Momentum: 0.9, WeightDecay: 1e-3, BatchSize: 32, LocalEpochs: 5}
	default:
		panic(fmt.Sprintf("fl: no hyperparameters for %v", id))
	}
}

// PretrainSpec describes the transfer-learning warm start applied to
// EffNetSim before federated fine-tuning (the paper modifies a pretrained
// EfficientNet-B0's final layer).
type PretrainSpec struct {
	Samples int
	Epochs  int
	LR      float64
}

// DefaultPretrain returns the calibrated pretraining recipe.
func DefaultPretrain() PretrainSpec { return PretrainSpec{Samples: 6000, Epochs: 5, LR: 3e-3} }

// Pretrain trains model on the texture-family-1 pretext distribution,
// emulating transfer learning: the backbone sees closely related but not
// identical features to the target task. The model is mutated in place;
// workers bounds the pretext set's generation, which is bit-identical at
// any value.
func Pretrain(model *nn.Model, cfg dataset.Config, spec PretrainSpec, workers int, rng *xrand.RNG) {
	if spec.Samples <= 0 || spec.Epochs <= 0 {
		return
	}
	preCfg := cfg
	preCfg.TextureFamily = 1
	set := dataset.GenerateSets(workers, preCfg, []dataset.Draw{{N: spec.Samples, RNG: rng.Derive("pretext-data")}})[0]
	opt := nn.NewSGD(spec.LR, 0.9, 1e-4)
	for e := 0; e < spec.Epochs; e++ {
		nn.TrainEpoch(model, opt, set.X, set.Y, 32, rng.Derive(fmt.Sprintf("pretext-epoch-%d", e)))
	}
}

// Client is one federated participant: a model, its training shard, a
// small selection set used to score candidate aggregations, and a test
// set used for reporting.
type Client struct {
	Name      string
	Model     *nn.Model
	Train     *dataset.Set
	Selection *dataset.Set
	Test      *dataset.Set
	Hyper     Hyper

	rng     *xrand.RNG
	opt     *nn.SGD
	scratch nn.EpochScratch
}

// NewClient builds a client. rng seeds the client's private shuffling
// stream; pass a derived stream per client.
func NewClient(name string, model *nn.Model, train, selection, test *dataset.Set, h Hyper, rng *xrand.RNG) *Client {
	return &Client{
		Name: name, Model: model,
		Train: train, Selection: selection, Test: test,
		Hyper: h, rng: rng,
	}
}

// Adopt loads an aggregated weight vector into the client's model.
func (c *Client) Adopt(weights []float32) error {
	return c.Model.SetWeightVector(weights)
}

// LocalTrain runs the configured number of local epochs for round and
// returns the resulting update. The optimizer is reset each round
// (standard FedAvg: momentum does not leak across aggregations) but its
// buffers — like the epoch scratch — persist across rounds.
func (c *Client) LocalTrain(round int) *Update {
	if c.opt == nil {
		c.opt = nn.NewSGD(c.Hyper.LR, c.Hyper.Momentum, c.Hyper.WeightDecay)
	} else {
		c.opt.Reset()
	}
	for e := 0; e < c.Hyper.LocalEpochs; e++ {
		nn.TrainEpochScratch(c.Model, c.opt, c.Train.X, c.Train.Y, c.Hyper.BatchSize,
			c.rng.Derive(fmt.Sprintf("round-%d-epoch-%d", round, e)), &c.scratch)
	}
	return &Update{
		Client:     c.Name,
		Round:      round,
		Weights:    c.Model.WeightVector(),
		NumSamples: c.Train.Len(),
	}
}

// TestAccuracy reports the model's accuracy on the client's test set
// after loading weights (the client's own model is used as scratch space
// and left holding weights).
func (c *Client) TestAccuracy(weights []float32) float64 {
	if err := c.Model.SetWeightVector(weights); err != nil {
		panic(err)
	}
	return nn.Evaluate(c.Model, c.Test.X, c.Test.Y, 64)
}

// SelectionEvaluator returns an Evaluator over the client's selection
// set, reusing the client's model as scratch space.
func (c *Client) SelectionEvaluator() Evaluator {
	return func(weights []float32) float64 {
		if err := c.Model.SetWeightVector(weights); err != nil {
			panic(err)
		}
		return nn.Evaluate(c.Model, c.Selection.X, c.Selection.Y, 64)
	}
}
