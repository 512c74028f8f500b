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

// ClientName returns the paper-style name of client i: "A", "B", ...
func ClientName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("P%d", i)
}

// Client is one federated participant: its training shard, a small
// selection set used to score candidate aggregations, and a test set
// used for reporting. A run's clients hold no Model (Scratch.Train).
type Client struct {
	Name      string
	Model     *nn.Model
	Train     *dataset.Set
	Selection *dataset.Set
	Test      *dataset.Set
	Hyper     Hyper

	rng *xrand.RNG
	own *trainer // LocalTrain's
}

// NewClient builds a client. rng seeds the client's private shuffling
// stream; pass a derived stream per client.
func NewClient(name string, model *nn.Model, train, selection, test *dataset.Set, h Hyper, rng *xrand.RNG) *Client {
	return &Client{Name: name, Model: model, Train: train, Selection: selection, Test: test, Hyper: h, rng: rng}
}

// LocalTrain runs the configured number of local epochs for round on
// c.Model and returns the update, bit for bit Scratch.Train's.
func (c *Client) LocalTrain(round int) *Update {
	if c.own == nil {
		c.own = new(trainer)
	}
	return c.own.train(c, c.Model, round)
}

// trainer is the optimizer and epoch buffers a training takes. train
// resets the optimizer (standard FedAvg: momentum does not leak across
// aggregations), so any trainer, fresh or reused, gives the same bits.
type trainer struct {
	opt     nn.SGD
	scratch nn.EpochScratch
}

// train is c's local training of round on m, from the weights m holds.
func (t *trainer) train(c *Client, m *nn.Model, round int) *Update {
	t.opt.LR, t.opt.Momentum, t.opt.WeightDecay = c.Hyper.LR, c.Hyper.Momentum, c.Hyper.WeightDecay
	t.opt.Reset()
	for e := 0; e < c.Hyper.LocalEpochs; e++ {
		nn.TrainEpochScratch(m, &t.opt, c.Train.X, c.Train.Y, c.Hyper.BatchSize, c.rng.Derive(fmt.Sprintf("round-%d-epoch-%d", round, e)), &t.scratch)
	}
	return &Update{Client: c.Name, Round: round, Weights: m.WeightVector(), NumSamples: c.Train.Len()}
}

// SelectionEvaluator returns an Evaluator over the client's selection
// set, reusing the client's model as scratch space: not safe for
// concurrent use, and no run calls it (runs score through a Scratch).
func (c *Client) SelectionEvaluator() Evaluator {
	return func(_ Key, weights func() []float32) float64 {
		if err := c.Model.SetWeightVector(weights()); err != nil {
			panic(err)
		}
		return nn.Evaluate(c.Model, c.Selection.X, c.Selection.Y, 64)
	}
}
