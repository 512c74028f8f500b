package bfl

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"waitornot/internal/chain"
	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/nn"
	"waitornot/internal/xrand"
)

// World is what set-up derives from the seed by label, whatever the
// policy and backend: the participant schedule, each slot's data sets,
// the initial weights and the held-out set. Runs handed one through
// Config.World only read it, so it may back many runs at once.
type World struct {
	cfg Config // the defaulted configuration it was built from
	// active are the fleet indices materialized, ascending;
	// participants[round] the slots training that round (nil: all).
	active           []int
	participants     [][]int
	train, sel, test []*dataset.Set // by slot
	initial          []float32
	initialKey       fl.Key // names initial once shared; zero: no key is built
	heldOutOnce      sync.Once
	heldOut          *dataset.Set
	memo             *memo       // set by Share; nil (a Block, a world never Shared): each run computes its own
	scratch          *fl.Scratch // lent to every training and scorer of every run and Block
}

// ResolveWorld is the World a run of c reads: its own, or the one it
// was handed unless that was built with another value of a field a
// World is a function of (the list below).
func (c Config) ResolveWorld() (*World, error) {
	if c.World == nil {
		w, err := NewWorld(c)
		if err == nil {
			w.Share(1) // its only run
		}
		return w, err
	}
	a, b := reflect.ValueOf(c.World.cfg), reflect.ValueOf(c.withDefaults())
	for _, f := range []string{"Seed", "Model", "Peers", "Rounds", "TrainPerPeer", "SelectionSize",
		"TestPerPeer", "DirichletAlpha", "PoisonPeer", "PoisonFrac", "ClientFraction"} {
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
	w, subsampled := &World{cfg: cfg, scratch: fl.NewScratch(cfg.Model)}, cfg.ClientFraction > 0
	if subsampled {
		k := subsampleK(cfg.ClientFraction, cfg.Peers)
		w.active, w.participants = cohort(drawParticipants(root, cfg.Peers, k, cfg.Rounds))
	} else {
		w.active = upTo(cfg.Peers)
	}

	// Every set is one draw of a single generation pass, so the samples
	// of all of them share one worker pool: each peer's train set (the
	// train pool laid out as its shards, or drawn per peer), then every
	// selection set, then every test set.
	var draws []dataset.Draw
	perPeer := func(size int, prefix string) {
		for _, a := range w.active {
			draws = append(draws, dataset.Draw{N: size, RNG: root.Derive(prefix + fl.ClientName(a))})
		}
	}
	if subsampled {
		perPeer(cfg.TrainPerPeer, "peer-data-")
	} else {
		draws = append(draws, dataset.Draw{N: cfg.TrainPerPeer * cfg.Peers, RNG: root.Derive("train-pool"),
			Split: &dataset.Split{Parts: cfg.Peers, Alpha: cfg.DirichletAlpha, RNG: root.Derive("partition")}})
	}
	perPeer(cfg.SelectionSize, "selection-")
	perPeer(cfg.TestPerPeer, "test-")
	sets, n := dataset.GenerateSets(cfg.Parallelism, data, draws), len(w.active)
	w.train, w.sel, w.test = sets[:n], sets[n:2*n], sets[2*n:]
	for s, a := range w.active {
		if w.train[s].Len() < cfg.Hyper.BatchSize {
			return nil, fmt.Errorf("bfl: peer %s's training shard holds %d samples, less than one minibatch of %d",
				fl.ClientName(a), w.train[s].Len(), cfg.Hyper.BatchSize)
		}
		if a == cfg.PoisonPeer && cfg.PoisonFrac > 0 {
			w.train[s] = dataset.PoisonLabelFlip(w.train[s], cfg.PoisonFrac, root.Derive("poison"))
		}
	}

	switch {
	case cfg.Model != nn.ModelEffNetSim:
		w.initial = cfg.Model.Build(root.Derive("init")).WeightVector()
	case cfg.Backbone != nil:
		w.initial = cfg.Backbone()
	default:
		w.initial = Backbone(cfg.Parallelism)
	}
	return w, nil
}

// EffNetSim's warm start: pretext samples, epochs and learning rate.
const (
	pretrainSamples = 6000
	pretrainEpochs  = 5
	pretrainLR      = 3e-3
)

// Backbone is EffNetSim's initial weights, as the paper's runs all start
// from one pretrained EfficientNet-B0: built from a stream no seed reads
// into, pretrained on texture family 1 (features related to the task's,
// not identical). workers bounds only set-up; no bit depends on it.
func Backbone(workers int) []float32 {
	root := xrand.New(0).Derive("backbone")
	model, rng := nn.ModelEffNetSim.Build(root.Derive("init")), root.Derive("pretrain")
	cfg := dataset.DefaultConfig()
	cfg.TextureFamily = 1
	set := dataset.GenerateSets(workers, cfg, []dataset.Draw{{N: pretrainSamples, RNG: rng.Derive("pretext-data")}})[0]
	opt := nn.NewSGD(pretrainLR, 0.9, 1e-4)
	var scratch nn.EpochScratch
	for e := 0; e < pretrainEpochs; e++ {
		nn.TrainEpochScratch(model, opt, set.X, set.Y, 32, rng.Derive(fmt.Sprintf("pretext-epoch-%d", e)), &scratch)
	}
	return model.WeightVector()
}

// Share readies the world for n runs at once (one: the run that built
// it): they train each (shard, hyperparameters, weights), score each
// (set, weights) and average each merge key once a round, sharing the
// result, the weights named by provenance key (DESIGN §5). Blocks share
// nothing.
func (w *World) Share(n int) {
	w.initialKey = fl.Key{1}
	w.memo = &memo{runs: n, rounds: make([]map[memoKey]*memoEntry, w.cfg.Rounds+1), passed: make([]int, w.cfg.Rounds+1)}
}

// memo is a shared world's single-flight store, a table per round.
type memo struct {
	mu     sync.Mutex
	runs   int
	rounds []map[memoKey]*memoEntry
	passed []int
	seen   func(round int, k memoKey, weights []float32) // a test's view of each lookup of weights
}

// memoKey is a training on a shard (hyper set) or a scoring on a set,
// of the weights its provenance key names. Without a set it is a
// product of the chain side, whose bytes the key fixes (DESIGN §5):
// the transaction from signs at nonce (a registration naming the
// initial weights, a submission the update it carries, or a record of
// label, n and the weights adopted), the digest of the named weights,
// or the decoding of a committed tx; with verify, pbft's score of the
// vector tx carries or, label holding the rest of its accepted batch's
// transaction hashes, of the batch's mean. With mean it is the adopted
// vector the weights' merge key names.
type memoKey struct {
	set     *dataset.Set
	hyper   fl.Hyper
	weights fl.Key
	from    keys.Address
	nonce   uint64
	label   string
	n       int
	tx      *chain.Transaction
	verify  bool
	mean    bool
}

// memoEntry is a result once done is closed; up, vec and tx are shared
// read-only.
type memoEntry struct {
	done chan struct{}
	up   *fl.Update
	vec  []float32
	acc  float64
	tx   *chain.Transaction
	sum  chain.Hash
	err  error
}

// do is round's entry for k, the weights it names, filled by the first
// caller while the others wait (a fill that panics leaves them an
// error). A key naming neither weights nor a transaction is only
// filled; a round outside the memo is an error, never a lookup.
func (m *memo) do(round int, k memoKey, weights func() []float32, fill func(*memoEntry)) *memoEntry {
	en := &memoEntry{}
	if m == nil || k.weights == (fl.Key{}) && k.tx == nil {
		fill(en)
		return en
	}
	if round < 0 || round >= len(m.rounds) {
		en.err = fmt.Errorf("bfl: memo round %d outside 0..%d", round, len(m.rounds)-1)
		return en
	}
	if m.seen != nil && k.set != nil {
		m.seen(round, k, weights())
	}
	m.mu.Lock()
	if m.rounds[round] == nil {
		m.rounds[round] = map[memoKey]*memoEntry{}
	}
	if had := m.rounds[round][k]; had != nil {
		m.mu.Unlock()
		<-had.done
		return had
	}
	en.done, m.rounds[round][k] = make(chan struct{}), en
	m.mu.Unlock()
	defer close(en.done)
	en.err = fmt.Errorf("bfl: a shared computation of round %d failed in another run", round)
	fill(en) // clears err
	return en
}

// Block is the view of slots [lo, hi) of an unsubsampled world — their
// fleet indices and data sets — sharing its initial weights and
// scratch. A run handed one builds only those peers, each keyed, named
// and seeded by fleet index.
func (w *World) Block(lo, hi int) *World {
	return &World{cfg: w.cfg, active: w.active[lo:hi], train: w.train[lo:hi],
		sel: w.sel[lo:hi], test: w.test[lo:hi], initial: w.initial, scratch: w.scratch}
}

// Initial is the world's initial weight vector, shared: callers must
// not mutate it.
func (w *World) Initial() []float32 { return w.initial }

// heldOutSet is the world's held-out set of SelectionSize samples,
// drawn on first use under the "ledger-verify" label: only pbft's model
// verification and the vanilla baseline's central aggregator read it.
func (w *World) heldOutSet() *dataset.Set {
	w.heldOutOnce.Do(func() {
		w.heldOut = dataset.Generate(dataset.DefaultConfig(), w.cfg.SelectionSize, xrand.New(w.cfg.Seed).Derive("ledger-verify"))
	})
	return w.heldOut
}

// verify is the score pbft's model verification (engine.verify) takes:
// accuracy on the held-out set (NaN for a vector of another length),
// the set drawn on first use, since only pbft verifies (in Commit).
func (w *World) verify(weights []float32) float64 {
	if len(weights) != len(w.initial) {
		return math.NaN()
	}
	return w.scratch.Evaluator(w.heldOutSet())(fl.Key{}, fl.Vector(weights))
}
