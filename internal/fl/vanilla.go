package fl

import (
	"context"
	"fmt"

	"waitornot/internal/dataset"
	"waitornot/internal/event"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/xrand"
)

// aggregationMode selects the Vanilla aggregator's behaviour from the
// paper: "not consider" averages every local update (plain FedAvg);
// "consider" searches all model combinations on the aggregator's
// selection set and adopts the best.
type aggregationMode int

// The two aggregation types of Table I / Figure 3.
const (
	modeNotConsider aggregationMode = iota + 1
	modeConsider
)

// String implements fmt.Stringer.
func (m aggregationMode) String() string {
	switch m {
	case modeNotConsider:
		return "not consider"
	case modeConsider:
		return "consider"
	default:
		return fmt.Sprintf("aggregationMode(%d)", int(m))
	}
}

// VanillaConfig parameterizes the centralized (Vanilla FL) experiment.
type VanillaConfig struct {
	// Model picks the architecture (paper: SimpleNN or EfficientNet-B0).
	Model nn.ModelID
	// Clients is the number of training devices (paper: 3).
	Clients int
	// Rounds is the number of communication rounds (paper: 10).
	Rounds int
	// Seed drives every random stream in the experiment.
	Seed uint64
	// TrainPerClient is each client's shard size.
	TrainPerClient int
	// SelectionSize is the aggregator's "default test set" size used by
	// the consider policy.
	SelectionSize int
	// TestPerClient is each client's held-out test set size.
	TestPerClient int
	// DirichletAlpha > 0 partitions client shards non-IID with the
	// given concentration; 0 means IID.
	DirichletAlpha float64
	// Hyper overrides local-training hyperparameters; zero value means
	// DefaultHyper(Model).
	Hyper Hyper
	// Pretrain overrides the EffNetSim warm start; zero value means
	// DefaultPretrain() for EffNetSim and no pretraining for SimpleNN.
	Pretrain PretrainSpec
	// Parallelism bounds the worker pool for per-client training, the
	// consider-policy combination search, and test evaluation. 0 means
	// runtime.NumCPU(); 1 restores the exact sequential schedule.
	// Results are bit-identical at every setting (see internal/par).
	Parallelism int
	// Events, when non-nil, receives the typed event stream (round
	// boundaries, per-client training, aggregation decisions) in
	// deterministic logical order. Attaching a sink never changes
	// results. Excluded from serialization: it is an observer, not
	// configuration.
	Events event.Sink `json:"-"`
}

// withDefaults fills unset fields.
func (c VanillaConfig) withDefaults() VanillaConfig {
	if c.Model == 0 {
		c.Model = nn.ModelSimpleNN
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.TrainPerClient == 0 {
		c.TrainPerClient = 3000
	}
	if c.SelectionSize == 0 {
		c.SelectionSize = 300
	}
	if c.TestPerClient == 0 {
		c.TestPerClient = 800
	}
	if c.Hyper == (Hyper{}) {
		c.Hyper = DefaultHyper(c.Model)
	}
	if c.Pretrain == (PretrainSpec{}) && c.Model == nn.ModelEffNetSim {
		c.Pretrain = DefaultPretrain()
	}
	return c
}

// Validate rejects impossible configurations.
func (c VanillaConfig) Validate() error {
	c = c.withDefaults()
	if !c.Model.Valid() {
		return fmt.Errorf("fl: invalid model %v", c.Model)
	}
	if c.Clients < 2 {
		return fmt.Errorf("fl: need at least 2 clients, got %d", c.Clients)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("fl: need at least 1 round, got %d", c.Rounds)
	}
	if c.TrainPerClient < c.Hyper.BatchSize {
		// nn.TrainEpochScratch runs full minibatches only: a smaller
		// shard would train nothing and report chance accuracy.
		return fmt.Errorf("fl: %d training samples per client is less than one minibatch of %d", c.TrainPerClient, c.Hyper.BatchSize)
	}
	return nil
}

// armResult is one aggregation arm's outcome: per-client, per-round test
// accuracy plus the combos the aggregator chose.
type armResult struct {
	// accuracy[client][round-1] is the aggregated model's accuracy on
	// that client's test set after the given round.
	accuracy [][]float64
	// chosenCombos[round-1] labels the combination the aggregator
	// adopted that round ("A,B,C" for not-consider always).
	chosenCombos []string
}

// VanillaResult is the complete Table I experiment output: only what
// the run determines, so the public report is this type.
type VanillaResult struct {
	ClientNames []string
	// Consider[client][round-1] / NotConsider[client][round-1] are test
	// accuracies under the two aggregation types.
	Consider    [][]float64
	NotConsider [][]float64
	// ConsiderCombos[round-1] is the combination the consider
	// aggregator adopted each round.
	ConsiderCombos []string
}

// ClientName returns the paper-style name of client i: "A", "B", ...
func ClientName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("P%d", i)
}

// environment is the data + initial weights shared by both arms.
type environment struct {
	cfg       VanillaConfig
	shards    []*dataset.Set
	selection *dataset.Set // the aggregator's "default test set"
	tests     []*dataset.Set
	initial   []float32
}

// setupEnvironment generates data and the (possibly pretrained) initial
// global weights; both arms start from identical state.
func setupEnvironment(cfg VanillaConfig) *environment {
	root, data := xrand.New(cfg.Seed), dataset.DefaultConfig()
	// One generation pass: the pool, the selection set, the test sets.
	draws := []dataset.Draw{
		{N: cfg.TrainPerClient * cfg.Clients, RNG: root.Derive("train-pool")},
		{N: cfg.SelectionSize, RNG: root.Derive("selection")},
	}
	for i := range cfg.Clients {
		draws = append(draws, dataset.Draw{N: cfg.TestPerClient, RNG: root.Derive(fmt.Sprintf("test-%d", i))})
	}
	sets := dataset.GenerateSets(cfg.Parallelism, data, draws)
	var shards []*dataset.Set
	if cfg.DirichletAlpha > 0 {
		shards = dataset.PartitionDirichlet(sets[0], cfg.Clients, cfg.DirichletAlpha, root.Derive("partition"))
	} else {
		shards = dataset.PartitionIID(sets[0], cfg.Clients, root.Derive("partition"))
	}
	model := cfg.Model.Build(root.Derive("init"))
	if cfg.Model == nn.ModelEffNetSim {
		Pretrain(model, data, cfg.Pretrain, cfg.Parallelism, root.Derive("pretrain"))
	}
	return &environment{
		cfg:       cfg,
		shards:    shards,
		selection: sets[1],
		tests:     sets[2:],
		initial:   model.WeightVector(),
	}
}

// buildClients constructs fresh clients (fresh models, fresh RNG streams)
// for one arm, all starting from the environment's initial weights.
func (env *environment) buildClients(arm string) []*Client {
	root := xrand.New(env.cfg.Seed)
	clients := make([]*Client, env.cfg.Clients)
	for i := range clients {
		name := ClientName(i)
		// Zero weights, never read: Adopt below overwrites them.
		model := env.cfg.Model.Build(nil)
		c := NewClient(name, model, env.shards[i], env.selection, env.tests[i],
			env.cfg.Hyper, root.Derive(fmt.Sprintf("arm-%s-client-%s", arm, name)))
		if err := c.Adopt(env.initial); err != nil {
			panic(err)
		}
		clients[i] = c
	}
	return clients
}

// runArm executes one aggregation arm of the Vanilla experiment. The
// context is checked between rounds and between pool items; on
// cancellation the partial arm is discarded and ctx.Err() returned.
// Events are emitted from this (the coordinator's) goroutine only, at
// deterministic barriers, so the stream is identical at every
// Parallelism.
func (env *environment) runArm(ctx context.Context, mode aggregationMode) (*armResult, error) {
	cfg := env.cfg
	sink := cfg.Events
	arm := mode.String()
	clients := env.buildClients(arm)
	workers := par.Workers(cfg.Parallelism)
	// The aggregator's scratch evaluators for the consider search, one
	// per worker, reused across rounds — paired with per-worker scratch
	// accumulators so the 2^n-1 combo aggregations allocate nothing.
	aggEvals := SelectionEvaluators(cfg.Model, env.selection, workers)
	aggAvgs := NewAveragers(workers)
	combos := AllCombos(cfg.Clients)

	res := &armResult{
		accuracy:     make([][]float64, cfg.Clients),
		chosenCombos: make([]string, 0, cfg.Rounds),
	}
	for i := range res.accuracy {
		res.accuracy[i] = make([]float64, 0, cfg.Rounds)
	}
	names := make([]string, cfg.Clients)
	for i := range names {
		names[i] = ClientName(i)
	}

	global := env.initial
	for round := 1; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sink.Emit(event.RoundStart{Round: round, Arm: arm})
		// Each client trains from its own model, shard, and derived RNG
		// stream, so the round parallelizes with bit-identical results.
		updates := make([]*Update, cfg.Clients)
		err := par.ForEachCtx(ctx, workers, cfg.Clients, func(i int) error {
			if err := clients[i].Adopt(global); err != nil {
				return err
			}
			updates[i] = clients[i].LocalTrain(round)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, u := range updates {
			sink.Emit(event.PeerTrained{Round: round, Peer: names[i], Arm: arm, Samples: u.NumSamples})
		}
		switch mode {
		case modeNotConsider:
			w, err := FedAvg(updates)
			if err != nil {
				return nil, err
			}
			global = w
			all := make(Combo, cfg.Clients)
			for i := range all {
				all[i] = i
			}
			res.chosenCombos = append(res.chosenCombos, all.Label(names))
		case modeConsider:
			results, err := EvaluateCombosWith(updates, combos, aggEvals, aggAvgs)
			if err != nil {
				return nil, err
			}
			best := BestCombo(results)
			// The search scores through reused scratch; materialize the
			// winner (retained as next round's global) with the
			// allocating FedAvg — bit-identical accumulation.
			w, err := FedAvg(best.Combo.Pick(updates))
			if err != nil {
				return nil, err
			}
			global = w
			res.chosenCombos = append(res.chosenCombos, best.Combo.Label(names))
		default:
			return nil, fmt.Errorf("fl: unknown aggregation mode %v", mode)
		}
		accs := make([]float64, cfg.Clients)
		err = par.ForEachCtx(ctx, workers, cfg.Clients, func(i int) error {
			accs[i] = clients[i].TestAccuracy(global)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var meanAcc float64
		for i := range clients {
			res.accuracy[i] = append(res.accuracy[i], accs[i])
			meanAcc += accs[i]
		}
		meanAcc /= float64(cfg.Clients)
		sink.Emit(event.AggregationDecided{
			Round:       round,
			Arm:         arm,
			Included:    cfg.Clients,
			ChosenCombo: res.chosenCombos[round-1],
			Accuracy:    meanAcc,
		})
		sink.Emit(event.RoundEnd{Round: round, Arm: arm})
	}
	return res, nil
}

// Run executes the full Table I experiment: both aggregation arms over
// identical data and initial weights. The context is checked between
// rounds and between pool items, and ctx.Err() is returned (with no
// partial result) once it fires.
func Run(ctx context.Context, cfg VanillaConfig) (*VanillaResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := setupEnvironment(cfg)
	consider, err := env.runArm(ctx, modeConsider)
	if err != nil {
		return nil, err
	}
	notConsider, err := env.runArm(ctx, modeNotConsider)
	if err != nil {
		return nil, err
	}
	names := make([]string, cfg.Clients)
	for i := range names {
		names[i] = ClientName(i)
	}
	return &VanillaResult{
		ClientNames:    names,
		Consider:       consider.accuracy,
		NotConsider:    notConsider.accuracy,
		ConsiderCombos: consider.chosenCombos,
	}, nil
}
