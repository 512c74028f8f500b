package bfl

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
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
	} else {
		w.active = upTo(cfg.Peers)
	}

	// Every set is one draw of a single generation pass, so the samples
	// of all of them share one worker pool: the train pool (or each
	// peer's train set), then every selection set, then every test set.
	var draws []dataset.Draw
	perPeer := func(size int, prefix string) {
		for _, a := range w.active {
			draws = append(draws, dataset.Draw{N: size, RNG: root.Derive(prefix + fl.ClientName(a))})
		}
	}
	if subsampled {
		perPeer(cfg.TrainPerPeer, "peer-data-")
	} else {
		draws = append(draws, dataset.Draw{N: cfg.TrainPerPeer * cfg.Peers, RNG: root.Derive("train-pool")})
	}
	perPeer(cfg.SelectionSize, "selection-")
	perPeer(cfg.TestPerPeer, "test-")
	sets, n := dataset.GenerateSets(cfg.Parallelism, data, draws), len(w.active)
	w.sel, w.test = sets[len(sets)-2*n:len(sets)-n], sets[len(sets)-n:]
	switch {
	case subsampled:
		w.train = sets[:n]
	case cfg.DirichletAlpha > 0:
		w.train = dataset.PartitionDirichlet(sets[0], cfg.Peers, cfg.DirichletAlpha, root.Derive("partition"))
	default:
		w.train = dataset.PartitionIID(sets[0], cfg.Peers, root.Derive("partition"))
	}
	for s, a := range w.active {
		if a == cfg.PoisonPeer && cfg.PoisonFrac > 0 {
			w.train[s] = dataset.PoisonLabelFlip(w.train[s], cfg.PoisonFrac, root.Derive("poison"))
		}
	}

	initModel := cfg.Model.Build(root.Derive("init"))
	if cfg.Model == nn.ModelEffNetSim {
		fl.Pretrain(initModel, data, cfg.Pretrain, cfg.Parallelism, root.Derive("pretrain"))
	}
	w.initial = initModel.WeightVector()
	return w, nil
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
