package bfl

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/xrand"
)

// World is what set-up derives from the seed by label, whatever the
// policy and backend: the participant schedule, each slot's data sets,
// the initial weights and the pbft verification set. Runs handed one
// through Config.World only read it, so it may back many runs at once.
type World struct {
	cfg Config // the defaulted configuration it was built from
	// active are the fleet indices materialized, ascending;
	// participants[round] the slots training that round (nil: all).
	active           []int
	participants     [][]int
	train, sel, test []*dataset.Set // by slot
	initial          []float32
	verifyOnce       sync.Once
	verify           *dataset.Set
}

// world is the defaulted configuration's World: its own, or the one it
// was handed unless that was built with another value of a field a
// World is a function of (the list below).
func (c Config) world() (*World, error) {
	if c.World == nil {
		return NewWorld(c)
	}
	a, b := reflect.ValueOf(c.World.cfg), reflect.ValueOf(c)
	for _, f := range []string{"Seed", "Model", "Peers", "Rounds", "TrainPerPeer", "SelectionSize",
		"TestPerPeer", "DirichletAlpha", "Pretrain", "PoisonPeer", "PoisonFrac", "ClientFraction"} {
		if x, y := a.FieldByName(f).Interface(), b.FieldByName(f).Interface(); x != y {
			return nil, fmt.Errorf("bfl: world built for %s %v, config has %v", f, x, y)
		}
	}
	return c.World, nil
}

// NewWorld builds the world a run of cfg would build for itself.
func NewWorld(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root, data := xrand.New(cfg.Seed), dataset.DefaultConfig()
	w, subsampled := &World{cfg: cfg}, cfg.ClientFraction > 0
	if subsampled {
		k := subsampleK(cfg.ClientFraction, cfg.Peers)
		w.active, w.participants = cohort(drawParticipants(root, cfg.Peers, k, cfg.Rounds))
		w.train = make([]*dataset.Set, len(w.active))
	} else {
		w.active = upTo(cfg.Peers)
		pool := dataset.Generate(data, cfg.TrainPerPeer*cfg.Peers, root.Derive("train-pool"))
		if cfg.DirichletAlpha > 0 {
			w.train = dataset.PartitionDirichlet(pool, cfg.Peers, cfg.DirichletAlpha, root.Derive("partition"))
		} else {
			w.train = dataset.PartitionIID(pool, cfg.Peers, root.Derive("partition"))
		}
	}
	initModel := cfg.Model.Build(root.Derive("init"))
	if cfg.Model == nn.ModelEffNetSim {
		fl.Pretrain(initModel, data, cfg.Pretrain, root.Derive("pretrain"))
	}
	w.initial = initModel.WeightVector()

	// Streams derive by label, slots are per item: any Parallelism.
	w.sel, w.test = make([]*dataset.Set, len(w.active)), make([]*dataset.Set, len(w.active))
	return w, par.ForEach(par.Workers(cfg.Parallelism), len(w.active), func(s int) error {
		name := fl.ClientName(w.active[s])
		if subsampled {
			w.train[s] = dataset.Generate(data, cfg.TrainPerPeer, root.Derive("peer-data-"+name))
		}
		if w.active[s] == cfg.PoisonPeer && cfg.PoisonFrac > 0 {
			w.train[s] = dataset.PoisonLabelFlip(w.train[s], cfg.PoisonFrac, root.Derive("poison"))
		}
		w.sel[s] = dataset.Generate(data, cfg.SelectionSize, root.Derive("selection-"+name))
		w.test[s] = dataset.Generate(data, cfg.TestPerPeer, root.Derive("test-"+name))
		return nil
	})
}

// verifier is one run's model verification over the world's held-out
// set, with its own evaluator (the scratch model is not shareable);
// both are built on first use, since only pbft verifies (in Commit).
func (w *World) verifier() func([]float32) float64 {
	var eval fl.Evaluator
	return func(weights []float32) float64 {
		if len(weights) != len(w.initial) {
			return math.NaN()
		}
		if eval == nil {
			w.verifyOnce.Do(func() {
				w.verify = dataset.Generate(dataset.DefaultConfig(), w.cfg.SelectionSize, xrand.New(w.cfg.Seed).Derive("ledger-verify"))
			})
			eval = fl.NewAccuracyEvaluator(w.cfg.Model, w.verify)
		}
		return eval(weights)
	}
}
