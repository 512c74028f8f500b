// Package bfl assembles the full system: fully coupled blockchain-FL
// peers that train locally, submit models through the aggregation
// contract on a PoW chain, personalize their aggregation with the core
// engine, and record their decisions on-chain.
//
// Run is the deterministic barriered runner that regenerates Tables
// II-IV and the wait-policy trade-off study; RunAsync (async.go) is the
// event-driven free run on the same virtual clock. Both commit through
// a ledger.Backend, with block production sequenced so results are
// bit-reproducible.
package bfl

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"time"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/ledger/latmodel"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

// Config parameterizes the decentralized experiment.
type Config struct {
	// Model picks the architecture.
	Model nn.ModelID
	// Peers is the number of fully coupled participants (paper: 3).
	Peers int
	// Rounds is the number of communication rounds (paper: 10).
	Rounds int
	// Seed drives every random stream.
	Seed uint64
	// Data is the synthetic distribution (zero = dataset.DefaultConfig).
	Data dataset.Config
	// TrainPerPeer / SelectionSize / TestPerPeer size each peer's data.
	TrainPerPeer  int
	SelectionSize int
	TestPerPeer   int
	// DirichletAlpha > 0 makes shards non-IID.
	DirichletAlpha float64
	// Hyper / Pretrain override training configuration.
	Hyper    fl.Hyper
	Pretrain fl.PretrainSpec
	// Policy is each peer's wait policy (default: core.WaitAll).
	Policy core.WaitPolicy
	// Filter screens abnormal models before aggregation.
	Filter core.Filter
	// Chain overrides consensus parameters (zero = low-difficulty
	// defaults suitable for in-process mining).
	Chain chain.Config
	// Backend names the consensus substrate rounds commit through
	// ("" = ledger.Default, the proof-of-work path; see
	// internal/ledger for the registry).
	Backend string
	// Validators is the modeled consensus-committee size for backends
	// with an analytic latency model (pbft: n = 3f+1, minimum 4;
	// 0 = backend default). A latency-model parameter, independent of
	// Peers.
	Validators int
	// CommitLatency, when set, makes the arrival-time model quantize
	// remote-update visibility to the backend's commit interval
	// (simnet.CommitVisibilityMs) — wait policies then face realistic
	// block-interval delays. Off by default, preserving the historical
	// arrival model.
	CommitLatency bool
	// EvalAllCombos evaluates every paper combination on the test set
	// each round (the data of Tables II-IV). Disable for speed when only
	// the chosen-model trajectory matters.
	EvalAllCombos bool
	// StragglerFactor scales each peer's simulated training duration in
	// the arrival-time model (nil = all 1.0). Drives the wait-policy
	// trade-off study.
	StragglerFactor []float64
	// BaseLatencyMs and PerKBMs parameterize the simulated network the
	// arrival model uses.
	BaseLatencyMs float64
	PerKBMs       float64
	// Compute, when set, draws a per-peer per-round multiplier on the
	// modeled training duration (heterogeneous compute). The zero
	// value keeps durations fixed at the calibrated model. Used by the
	// asynchronous engine (RunAsync); the barriered runner keeps its
	// historical fixed model.
	Compute simnet.Dist
	// Network, when set, draws extra per-submission propagation delay
	// in ms on top of BaseLatencyMs + size/bandwidth (network jitter).
	// Asynchronous engine only.
	Network simnet.Dist
	// TimeBudgetMs caps the asynchronous run's virtual horizon: peers
	// stop opening new rounds past it and any peer still waiting
	// aggregates what it has. 0 means no cap (run until every peer
	// finishes Rounds aggregations). Ignored by the barriered runner.
	TimeBudgetMs float64
	// StalenessHalfLifeMs is the age at which an update's weight in
	// the asynchronous staleness-weighted merge halves. 0 derives it
	// from the fleet's mean modeled training duration. Asynchronous
	// engine only.
	StalenessHalfLifeMs float64
	// PoisonPeer, if >= 0, label-flips PoisonFrac of that peer's shard
	// (the abnormal-client scenario).
	PoisonPeer int
	PoisonFrac float64
	// ClientFraction, when in (0, 1], trains only a K-of-N subsample of
	// the registered fleet each round (K = round(ClientFraction*Peers),
	// at least 1) — the cross-device regime, which is what makes fleets
	// of thousands of registered peers feasible. Participant sets are
	// drawn per round from a dedicated substream of the root seed at
	// setup, so they are identical at any Parallelism; non-participants
	// neither train, submit, nor appear in wait-policy arrival sets, and
	// only sampled peers are materialized (setup cost scales with the
	// active cohort, not with Peers). Each sampled peer draws its own
	// training shard instead of partitioning one global pool, and the
	// per-pair combination grid (EvalAllCombos) is disabled. 0 disables
	// subsampling: every peer participates every round, the classic
	// cross-silo schedule, bit-identical to before the knob existed.
	ClientFraction float64
	// Parallelism bounds the worker pool for per-peer local training,
	// per-peer aggregation decisions, and the per-peer combination
	// searches. 0 means runtime.NumCPU(); 1 restores the exact
	// sequential schedule. Every peer trains from its own model and
	// pre-derived RNG stream and every result lands in an
	// index-addressed slot, so results are bit-identical at any
	// setting (see internal/par).
	Parallelism int
	// Events, when non-nil, receives the typed event stream (round
	// boundaries, per-peer training, on-chain submissions, aggregation
	// decisions) in deterministic logical order: events are emitted
	// only from the coordinator goroutine at pool barriers, in peer
	// index order, so the stream is identical at every Parallelism and
	// attaching a sink never changes results. Excluded from
	// serialization: it is an observer, not configuration.
	Events event.Sink `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Model == 0 {
		c.Model = nn.ModelSimpleNN
	}
	if c.Peers == 0 {
		c.Peers = 3
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.Data.Classes == 0 {
		c.Data = dataset.DefaultConfig()
	}
	if c.TrainPerPeer == 0 {
		c.TrainPerPeer = 3000
	}
	if c.SelectionSize == 0 {
		c.SelectionSize = 300
	}
	if c.TestPerPeer == 0 {
		c.TestPerPeer = 800
	}
	if c.Hyper == (fl.Hyper{}) {
		c.Hyper = fl.DefaultHyper(c.Model)
	}
	if c.Pretrain == (fl.PretrainSpec{}) && c.Model == nn.ModelEffNetSim {
		c.Pretrain = fl.DefaultPretrain()
	}
	if c.Policy == nil {
		c.Policy = core.WaitAll{}
	}
	if c.Chain == (chain.Config{}) {
		c.Chain = chain.DefaultConfig()
		c.Chain.GenesisDifficulty = 64
		c.Chain.MinDifficulty = 16
	}
	if c.BaseLatencyMs == 0 {
		c.BaseLatencyMs = 20
	}
	if c.PerKBMs == 0 {
		c.PerKBMs = 0.08 // ~100 Mbit/s
	}
	if c.PoisonPeer == 0 && c.PoisonFrac == 0 {
		c.PoisonPeer = -1
	}
	return c
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if !c.Model.Valid() {
		return fmt.Errorf("bfl: invalid model %v", c.Model)
	}
	if c.Peers < 2 {
		return fmt.Errorf("bfl: need at least 2 peers, got %d", c.Peers)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("bfl: need at least 1 round")
	}
	if c.StragglerFactor != nil && len(c.StragglerFactor) != c.Peers {
		return fmt.Errorf("bfl: %d straggler factors for %d peers", len(c.StragglerFactor), c.Peers)
	}
	if c.ClientFraction < 0 || c.ClientFraction > 1 {
		return fmt.Errorf("bfl: client fraction %g outside (0, 1]", c.ClientFraction)
	}
	if c.ClientFraction > 0 && c.DirichletAlpha > 0 {
		return fmt.Errorf("bfl: DirichletAlpha partitions one global pool; incompatible with ClientFraction's per-peer shards")
	}
	if c.PoisonPeer >= c.Peers {
		return fmt.Errorf("bfl: poison peer %d out of range", c.PoisonPeer)
	}
	if c.Backend != "" {
		if _, ok := ledger.Lookup(c.Backend); !ok {
			return fmt.Errorf("bfl: unknown backend %q (registered: %v)", c.Backend, ledger.Names())
		}
	}
	if c.Validators != 0 && c.Validators < latmodel.MinValidators {
		return fmt.Errorf("bfl: %d validators below the PBFT minimum %d (n = 3f+1 with f >= 1)",
			c.Validators, latmodel.MinValidators)
	}
	if err := c.Compute.Validate(); err != nil {
		return fmt.Errorf("bfl: compute distribution: %w", err)
	}
	if err := c.Network.Validate(); err != nil {
		return fmt.Errorf("bfl: network distribution: %w", err)
	}
	if c.TimeBudgetMs < 0 {
		return fmt.Errorf("bfl: negative time budget %g", c.TimeBudgetMs)
	}
	if c.StalenessHalfLifeMs < 0 {
		return fmt.Errorf("bfl: negative staleness half-life %g", c.StalenessHalfLifeMs)
	}
	return c.Data.Validate()
}

// RoundStats records one peer's aggregation round.
type RoundStats struct {
	Round int
	// Included is how many updates the wait policy admitted.
	Included int
	// WaitMs is the simulated time from round start to policy firing.
	WaitMs float64
	// ChosenCombo labels the adopted combination.
	ChosenCombo string
	// ChosenAccuracy is the adopted model's accuracy on the peer's
	// test set.
	ChosenAccuracy float64
	// Rejected lists clients filtered as abnormal.
	Rejected []string
}

// ChainStats summarizes the on-chain footprint of an experiment.
type ChainStats struct {
	Blocks      int
	Txs         int
	GasUsed     uint64
	Bytes       int
	Submissions int
	Decisions   int
	// VerifyRejected counts submissions the backend's model
	// verification rejected (pbft): committed as transactions but
	// excluded from every aggregation batch. Submissions still counts
	// them — they are on the chain, just not on the contract.
	VerifyRejected int
}

// Result is the complete decentralized experiment output.
type Result struct {
	Config    Config
	PeerNames []string
	// ComboLabels[peer] are that peer's Table II-IV row labels, in order.
	ComboLabels [][]string
	// ComboAccuracy[peer][round-1][comboIdx] is the test accuracy of
	// each combination (only populated when EvalAllCombos).
	ComboAccuracy [][][]float64
	// Rounds[peer][round-1] is the per-round aggregation record.
	Rounds [][]RoundStats
	// Chain is the footprint of peer 0's canonical chain.
	Chain ChainStats
	// TrainWallTime is the cumulative real training time.
	TrainWallTime time.Duration
}

// peerState bundles one fully coupled participant in the deterministic
// runner.
type peerState struct {
	name   string
	key    *keys.Key
	client *fl.Client
	agg    *core.Aggregator
	nonce  uint64
	// adopted is the weight vector training starts from next round.
	adopted []float32
	// samples is the peer's training-shard size, fixed at setup — the
	// FedAvg weight of everything this peer contributes upward.
	samples int
	// simTrainMs is the deterministic training-duration model used for
	// arrival times (samples x epochs x per-sample cost x straggler).
	simTrainMs float64
	// testEvals are worker evaluators over the peer's test set, used to
	// score the Tables II-IV combination grid concurrently; testAvgs
	// pairs them with per-worker scratch accumulators reused across
	// rounds.
	testEvals []fl.Evaluator
	testAvgs  []*fl.Averager
	// avg is the sequential table path's scratch accumulator (table
	// rows are evaluated and discarded, never retained).
	avg fl.Averager
}

// perSampleCostMs approximates one training pass's cost, used only by
// the deterministic arrival-time model (real wall time is reported
// separately).
func perSampleCostMs(id nn.ModelID) float64 {
	switch id {
	case nn.ModelEffNetSim:
		return 0.0028
	default:
		return 0.0008
	}
}

// RunDecentralized executes the full blockchain-FL experiment.
func RunDecentralized(cfg Config) (*Result, error) {
	return Run(context.Background(), cfg)
}

// Run is RunDecentralized with cooperative cancellation: the context
// is checked between rounds and between pool items (per-peer training
// and per-peer decisions), and ctx.Err() is returned — with no partial
// result — within one round boundary of cancellation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	res, _, err := runDecentralized(ctx, cfg)
	return res, err
}

// ResultWithChain couples an experiment result with the canonical chain
// it produced (peer 0's view — by construction all peers agree in the
// deterministic runner).
type ResultWithChain struct {
	Result         *Result
	CanonicalChain []*chain.Block
}

// RunDecentralizedWithChain runs the experiment and also returns the
// blocks, for inspection and persistence tooling. It requires a
// chain-backed backend (the pow default); block-free backends return
// an error.
func RunDecentralizedWithChain(cfg Config) (*ResultWithChain, error) {
	res, be, err := runDecentralized(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	ch, ok := be.(ledger.Chainer)
	if !ok {
		return nil, fmt.Errorf("bfl: backend %q keeps no block chain", be.Name())
	}
	return &ResultWithChain{Result: res, CanonicalChain: ch.Chain(0).CanonicalChain()}, nil
}

// engine is the assembled experiment: data sharded, peers built,
// ledger backend up, and the shared virtual clock at zero. Both
// schedules consume it — the barriered runner ticks the clock as a
// commit-cadence metronome (runDecentralized), the asynchronous
// runner drives it as a true event queue (runAsync).
type engine struct {
	cfg  Config
	sink event.Sink
	root *xrand.RNG

	be    ledger.Backend
	peers []*peerState
	// initial is the shared starting weight vector every peer adopts.
	initial []float32

	workers int

	// clock is the virtual-time engine; clockStep the backend's commit
	// cadence in ms (integral: the historical runner quantized it to
	// whole ms, and bit-compatibility keeps that).
	clock     *vclock.Clock
	clockStep float64

	// verifyRejected accumulates ledger-verification rejections across
	// the barriered rounds (pbft model screening).
	verifyRejected int

	// participants[round] (1-indexed) lists the slot indices sampled to
	// train that round, ascending; nil when ClientFraction is unset
	// (every peer, every round). Drawn once at setup.
	participants [][]int
	// txIdx[peer] incrementally indexes that peer's committed-tx view by
	// hash, so each transaction is hashed once per view instead of once
	// per round. Slot-addressed: the decide pool touches only its own
	// peer's entry.
	txIdx []txIndex

	// blobScratch is the submission loop's reusable weight-encoding
	// buffer (coordinator goroutine only): one allocation the first
	// round, zero after.
	blobScratch []byte
}

// txIndex is one peer view's committed-transaction hash index.
type txIndex struct {
	scanned int
	byHash  map[chain.Hash]*chain.Transaction
}

// newEngine builds the experiment state shared by both schedules.
func newEngine(cfg Config) (*engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{cfg: cfg, sink: cfg.Events, root: xrand.New(cfg.Seed), clock: vclock.New()}
	if err := e.setup(); err != nil {
		return nil, err
	}
	e.txIdx = make([]txIndex, len(e.peers))
	return e, nil
}

// register submits every peer's identity-registration transaction and
// commits them as the first batch at the clock's first cadence tick
// (round 0).
func (e *engine) register() error {
	now, err := e.clock.Advance(e.clockStep)
	if err != nil {
		return err
	}
	return e.registerAt(now)
}

// registerAt is register with the commit timestamp supplied by the
// caller — the sharded orchestrator owns the clock, so its engines
// take explicit instants instead of advancing one themselves.
func (e *engine) registerAt(tsMs float64) error {
	for _, p := range e.peers {
		tx, err := chain.NewTx(p.key, p.nonce, contract.RegistryAddress, 0,
			contract.RegisterCallData(p.name), e.cfg.Chain.Gas, 1_000_000, 1)
		if err != nil {
			return err
		}
		p.nonce++
		if err := e.be.Submit(tx); err != nil {
			return fmt.Errorf("bfl: registration tx: %w", err)
		}
	}
	if _, err := commitRound(e.be, e.sink, 0, 0, len(e.peers), uint64(tsMs)); err != nil {
		return fmt.Errorf("bfl: registration block: %w", err)
	}
	return nil
}

// setup generates data, builds peers, and brings the ledger up. The
// subsampled (cross-device) regime materializes only sampled peers and
// lives in subsample.go; this body is the classic cross-silo path,
// byte-for-byte the historical schedule.
func (e *engine) setup() error {
	if e.cfg.ClientFraction > 0 {
		return e.setupSubsampled()
	}
	cfg, root := e.cfg, e.root

	// --- Data ------------------------------------------------------------
	pool := dataset.Generate(cfg.Data, cfg.TrainPerPeer*cfg.Peers, root.Derive("train-pool"))
	var shards []*dataset.Set
	if cfg.DirichletAlpha > 0 {
		shards = dataset.PartitionDirichlet(pool, cfg.Peers, cfg.DirichletAlpha, root.Derive("partition"))
	} else {
		shards = dataset.PartitionIID(pool, cfg.Peers, root.Derive("partition"))
	}
	if cfg.PoisonPeer >= 0 && cfg.PoisonFrac > 0 {
		shards[cfg.PoisonPeer] = dataset.PoisonLabelFlip(shards[cfg.PoisonPeer], cfg.PoisonFrac, root.Derive("poison"))
	}

	// --- Initial weights (shared; pretrained for the complex model) ------
	initModel := cfg.Model.Build(root.Derive("init"))
	if cfg.Model == nn.ModelEffNetSim {
		fl.Pretrain(initModel, cfg.Data, cfg.Pretrain, root.Derive("pretrain"))
	}
	initial := initModel.WeightVector()

	// --- Ledger + peers ---------------------------------------------------
	vm := contract.NewVM(cfg.Chain.Gas)
	peerKeys := make([]*keys.Key, cfg.Peers)
	alloc := make(map[keys.Address]uint64, cfg.Peers)
	sealers := make([]keys.Address, cfg.Peers)
	for i := range peerKeys {
		peerKeys[i] = keys.GenerateDeterministic(cfg.Seed*1009 + uint64(i))
		alloc[peerKeys[i].Address()] = 1 << 62
		sealers[i] = peerKeys[i].Address()
	}
	// Consortium verification set: an independent held-out sample the
	// ledger's model verification (pbft) scores submissions on. Derive
	// does not advance the root stream, so building it unconditionally
	// perturbs no other backend's results.
	verifySet := dataset.Generate(cfg.Data, cfg.SelectionSize, root.Derive("ledger-verify"))
	verifyEval := fl.NewAccuracyEvaluator(cfg.Model, verifySet)
	verify := func(w []float32) float64 {
		if len(w) != len(initial) {
			return math.NaN()
		}
		return verifyEval(w)
	}
	be, err := ledger.New(cfg.Backend, ledger.Config{
		Peers:      cfg.Peers,
		Chain:      cfg.Chain,
		Alloc:      alloc,
		Proc:       vm,
		Sealers:    sealers,
		Validators: cfg.Validators,
		Verify:     verify,
	})
	if err != nil {
		return err
	}
	workers := par.Workers(cfg.Parallelism)
	// Worker-evaluator pools for the per-peer combination searches are
	// capped by the number of combinations a peer ever enumerates.
	comboWorkers := workers
	if n := len(fl.PaperCombos(cfg.Peers, 0)); comboWorkers > n {
		comboWorkers = n
	}
	peers := make([]*peerState, cfg.Peers)
	for i := range peers {
		name := fl.ClientName(i)
		model := cfg.Model.Build(root.Derive("peer-model-" + name))
		sel := dataset.Generate(cfg.Data, cfg.SelectionSize, root.Derive("selection-"+name))
		test := dataset.Generate(cfg.Data, cfg.TestPerPeer, root.Derive("test-"+name))
		client := fl.NewClient(name, model, shards[i], sel, test, cfg.Hyper, root.Derive("train-"+name))
		straggler := 1.0
		if cfg.StragglerFactor != nil {
			straggler = cfg.StragglerFactor[i]
		}
		p := &peerState{
			name:       name,
			key:        peerKeys[i],
			client:     client,
			adopted:    initial,
			samples:    shards[i].Len(),
			simTrainMs: float64(shards[i].Len()*cfg.Hyper.LocalEpochs) * perSampleCostMs(cfg.Model) * straggler,
		}
		p.agg = core.NewAggregator(name, cfg.Policy, cfg.Filter, client.SelectionEvaluator(), root.Derive("ties-"+name))
		if comboWorkers > 1 {
			// Independent scratch models let one peer's combination
			// search fan out without touching the client's model.
			p.agg.WorkerEvals = fl.SelectionEvaluators(cfg.Model, sel, comboWorkers)
			if cfg.EvalAllCombos {
				p.testEvals = fl.SelectionEvaluators(cfg.Model, test, comboWorkers)
				p.testAvgs = fl.NewAveragers(comboWorkers)
			}
		}
		peers[i] = p
	}

	// The clock advances at the backend's commit cadence, so block
	// timestamps march at the interval the difficulty retarget rule
	// targets — a backend variant with a slower interval stays at its
	// difficulty equilibrium instead of climbing every block. For the
	// default pow substrate the cadence IS the chain's target interval,
	// preserving the historical schedule bit-for-bit; zero-latency
	// backends (instant) keep the legacy clock. Quantized to whole ms
	// exactly as the historical runner's uint64 clock was.
	step := uint64(be.CommitLatencyMs())
	if step == 0 {
		step = cfg.Chain.TargetIntervalMs
	}
	e.clockStep = float64(step)
	e.be = be
	e.peers = peers
	e.initial = initial
	e.workers = workers
	return nil
}

// newResult builds the per-peer result scaffolding (names, combo row
// labels, empty round slices) for an assembled engine.
func (e *engine) newResult() *Result {
	cfg := e.cfg
	n := len(e.peers)
	res := &Result{
		Config:        cfg,
		PeerNames:     make([]string, n),
		ComboLabels:   make([][]string, n),
		ComboAccuracy: make([][][]float64, n),
		Rounds:        make([][]RoundStats, n),
	}
	names := make([]string, n)
	for i, p := range e.peers {
		names[i] = p.name
		res.PeerNames[i] = p.name
	}
	if e.participants != nil {
		// Subsampled fleets skip the per-pair combo grid: labels alone
		// would be quadratic in Peers, and EvalAllCombos is disabled.
		return res
	}
	for i := range e.peers {
		for _, combo := range fl.PaperCombos(cfg.Peers, i) {
			res.ComboLabels[i] = append(res.ComboLabels[i], combo.Label(names))
		}
	}
	return res
}

// roundParticipants returns the ascending slot indices training in
// round, or nil when subsampling is off (every peer, every round).
func (e *engine) roundParticipants(round int) []int {
	if e.participants == nil || round < 1 || round >= len(e.participants) {
		return nil
	}
	return e.participants[round]
}

// runDecentralized is the barriered schedule on the virtual clock:
// every round, all peers train, the round's submissions commit at the
// next cadence tick, every peer's policy fires on the shared arrival
// model (core.FirePolicy), and the decisions commit at the tick after.
// The round body itself lives in engine.runRound so the sharded
// orchestrator can drive the identical machinery with timestamps from
// its own shared clock.
func runDecentralized(ctx context.Context, cfg Config) (*Result, ledger.Backend, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := e.register(); err != nil {
		return nil, nil, err
	}
	res := e.newResult()

	trainStart := time.Now()
	for round := 1; round <= e.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// The barriered clock is a pure metronome (no queued events), so
		// taking both cadence ticks up front yields the exact timestamps
		// the historical schedule produced mid-round.
		subTs, err := e.clock.Advance(e.clockStep)
		if err != nil {
			return nil, nil, err
		}
		decTs, err := e.clock.Advance(e.clockStep)
		if err != nil {
			return nil, nil, err
		}
		if err := e.runRound(ctx, res, round, subTs, decTs); err != nil {
			return nil, nil, err
		}
	}
	res.TrainWallTime = time.Since(trainStart)
	res.Chain = chainStats(e.be)
	res.Chain.VerifyRejected = e.verifyRejected
	return res, e.be, nil
}

// runRound executes one full barriered round — train, submit, commit
// at subTs, policy-gated decisions, commit at decTs — appending each
// peer's RoundStats (and combo table row) to res.
func (e *engine) runRound(ctx context.Context, res *Result, round int, subTs, decTs float64) error {
	cfg := e.cfg
	sink, be, workers := e.sink, e.be, e.workers

	// The round's participants: every peer in the classic schedule, the
	// pre-drawn K-of-N sample under ClientFraction. slots maps the
	// round-local index back to the fleet slot (result rows, ledger
	// views); peers is the participating subset in slot order.
	slots := e.roundParticipants(round)
	peers := e.peers
	if slots != nil {
		peers = make([]*peerState, len(slots))
		for k, s := range slots {
			peers[k] = e.peers[s]
		}
	} else {
		slots = make([]int, len(peers))
		for i := range slots {
			slots[i] = i
		}
	}
	nPart := len(peers)

	sink.Emit(event.RoundStart{Round: round})
	// 1. Local training (each peer from its adopted weights). Peers
	// train concurrently: each owns its model and RNG stream, and
	// each writes only its own result slot.
	updates := make([]*fl.Update, nPart)
	if err := par.ForEachCtx(ctx, workers, nPart, func(i int) error {
		if err := peers[i].client.Adopt(peers[i].adopted); err != nil {
			return err
		}
		updates[i] = peers[i].client.LocalTrain(round)
		return nil
	}); err != nil {
		return err
	}
	for i, p := range peers {
		sink.Emit(event.PeerTrained{Round: round, Peer: p.name, Samples: updates[i].NumSamples, SimMs: p.simTrainMs})
	}

	// 2. Submit signed model transactions; gossip into every peer's
	// pending set and commit the round's submission block.
	blobBytes := make([]int, nPart)
	for i, p := range peers {
		blob := nn.AppendWeights(e.blobScratch[:0], updates[i].Weights)
		e.blobScratch = blob[:0]
		blobBytes[i] = len(blob)
		payload := contract.SubmitCallData(uint64(round), uint64(cfg.Model), uint64(updates[i].NumSamples), blob)
		tx, err := chain.NewTx(p.key, p.nonce, contract.AggregationAddress, 0, payload, cfg.Chain.Gas, 10_000_000, 1)
		if err != nil {
			return err
		}
		p.nonce++
		if err := be.Submit(tx); err != nil {
			return fmt.Errorf("bfl: round %d submission tx: %w", round, err)
		}
	}
	leader := (round - 1) % len(e.peers)
	subCommit, err := commitRound(be, sink, round, leader, nPart, uint64(subTs))
	if err != nil {
		return fmt.Errorf("bfl: round %d submission block: %w", round, err)
	}
	e.verifyRejected += len(subCommit.Rejected)
	for i, p := range peers {
		sink.Emit(event.ModelSubmitted{Round: round, Peer: p.name, Bytes: blobBytes[i]})
	}

	// 3. Each peer reads the round's submissions from its own chain
	// view, reconstructs updates, applies its wait policy over the
	// arrival-time model, decides, and records the decision. Peers
	// decide concurrently: every peer reads its own chain (chain
	// reads are lock-protected and side-effect free), mutates only
	// its own state, and fills index-addressed slots, so the block
	// assembled below is identical to the sequential run's.
	decTxs := make([]*chain.Transaction, nPart)
	remoteArrival := arrivalTimes(cfg, peers, updates, be.CommitLatencyMs())
	if err := par.ForEachCtx(ctx, workers, nPart, func(i int) error {
		p := peers[i]
		onChain, err := e.readUpdates(slots[i], round)
		if err != nil {
			return fmt.Errorf("bfl: %s round %d: %w", p.name, round, err)
		}
		// A peer whose own submission the backend's verification
		// rejected still aggregates with its local update — a peer
		// never discards its own model (and Decide requires it).
		selfOnChain := false
		for _, u := range onChain {
			if u.Client == p.name {
				selfOnChain = true
				break
			}
		}
		if !selfOnChain {
			onChain = append(onChain, updates[i])
			sort.Slice(onChain, func(a, b int) bool { return onChain[a].Client < onChain[b].Client })
		}
		included, waitMs := applyPolicy(cfg.Policy, p.name, p.simTrainMs, onChain, remoteArrival)
		decision, err := p.agg.Decide(round, included, time.Duration(waitMs*float64(time.Millisecond)), nPart)
		if err != nil {
			return fmt.Errorf("bfl: %s round %d: %w", p.name, round, err)
		}
		p.adopted = decision.Chosen.Weights

		chosenLabel := comboLabel(decision.Chosen.Combo, decision.KeptClients)
		stats := RoundStats{
			Round:          round,
			Included:       len(included),
			WaitMs:         waitMs,
			ChosenCombo:    chosenLabel,
			ChosenAccuracy: p.client.TestAccuracy(decision.Chosen.Weights),
			Rejected:       decision.RejectedClients,
		}
		res.Rounds[slots[i]] = append(res.Rounds[slots[i]], stats)

		// Table rows: evaluate every paper combo over the full
		// update set — independent of the wait policy AND of ledger
		// verification (which can exclude a peer's update from
		// onChain), so every labeled row stays defined each round.
		if cfg.EvalAllCombos {
			combos := fl.PaperCombos(cfg.Peers, i)
			row := make([]float64, 0, len(combos))
			if len(p.testEvals) > 1 {
				results, err := fl.EvaluateCombosWith(updates, combos, p.testEvals, p.testAvgs)
				if err != nil {
					return err
				}
				for _, r := range results {
					row = append(row, r.Accuracy)
				}
			} else {
				for _, combo := range combos {
					w, err := p.avg.FedAvg(combo.Pick(updates))
					if err != nil {
						return err
					}
					row = append(row, p.client.TestAccuracy(w))
				}
			}
			res.ComboAccuracy[slots[i]] = append(res.ComboAccuracy[slots[i]], row)
		}

		var rh chain.Hash = nn.HashWeights(decision.Chosen.Weights)
		payload := contract.RecordCallData(uint64(round), chosenLabel, rh, uint64(len(decision.Chosen.Combo)))
		tx, err := chain.NewTx(p.key, p.nonce, contract.AggregationAddress, 0, payload, cfg.Chain.Gas, 1_000_000, 1)
		if err != nil {
			return err
		}
		p.nonce++
		decTxs[i] = tx
		return nil
	}); err != nil {
		return err
	}
	for i, p := range peers {
		rr := res.Rounds[slots[i]]
		st := rr[len(rr)-1]
		sink.Emit(event.AggregationDecided{
			Round:       round,
			Peer:        p.name,
			Included:    st.Included,
			WaitMs:      st.WaitMs,
			ChosenCombo: st.ChosenCombo,
			Accuracy:    st.ChosenAccuracy,
			Rejected:    st.Rejected,
		})
	}
	for _, tx := range decTxs {
		if err := be.Submit(tx); err != nil {
			return fmt.Errorf("bfl: round %d decision tx: %w", round, err)
		}
	}
	decCommit, err := commitRound(be, sink, round, leader, nPart, uint64(decTs))
	if err != nil {
		return fmt.Errorf("bfl: round %d decision block: %w", round, err)
	}
	e.verifyRejected += len(decCommit.Rejected)
	sink.Emit(event.RoundEnd{Round: round})
	return nil
}

// commitRound commits everything pending as one batch, requires the
// commit to have included exactly the round's transactions (the
// deterministic runner never leaves a straggler pending), and emits
// the BlockCommitted event.
func commitRound(be ledger.Backend, sink event.Sink, round, leader, wantTxs int, timeMs uint64) (ledger.Commit, error) {
	c, err := be.Commit(leader, timeMs)
	if err != nil {
		return c, err
	}
	if c.Txs != wantTxs {
		return c, fmt.Errorf("committed %d of %d txs", c.Txs, wantTxs)
	}
	sink.Emit(event.BlockCommitted{
		Round:     round,
		Backend:   be.Name(),
		Height:    c.Height,
		Txs:       c.Txs,
		GasUsed:   c.GasUsed,
		LatencyMs: c.LatencyMs,
		VirtualMs: float64(timeMs),
		Rejected:  len(c.Rejected),
	})
	return c, nil
}

// readUpdates reconstructs the round's model updates from one peer's
// ledger view: contract records give digests + carrying-tx hashes; the
// weight bytes are fetched from committed-tx calldata and verified.
// The committed-tx hash index is incremental per peer view (new txs
// are hashed once, not once per round); the decide pool is safe here
// because each worker only touches its own peer's index. A round whose
// every submission failed ledger verification reads as the empty set —
// the caller then aggregates the peer's own local update alone.
func (e *engine) readUpdates(peer, round int) ([]*fl.Update, error) {
	be := e.be
	st := be.StateView(peer)
	subs := contract.SubmissionsAt(st, uint64(round))
	idx := &e.txIdx[peer]
	if idx.byHash == nil {
		idx.byHash = make(map[chain.Hash]*chain.Transaction)
	}
	txs := be.CommittedTxs(peer)
	for ; idx.scanned < len(txs); idx.scanned++ {
		tx := txs[idx.scanned]
		idx.byHash[tx.Hash()] = tx
	}
	out := make([]*fl.Update, 0, len(subs))
	for _, sub := range subs {
		tx, ok := idx.byHash[sub.TxHash]
		if !ok {
			return nil, fmt.Errorf("submission tx %s not on canonical chain", sub.TxHash.Short())
		}
		method, args, err := contract.DecodeCall(tx.Payload)
		if err != nil || method != "submit" || len(args) != 4 {
			return nil, fmt.Errorf("carried payload malformed for %s", sub.TxHash.Short())
		}
		blob := args[3]
		if sha256.Sum256(blob) != [32]byte(sub.WeightsHash) {
			return nil, fmt.Errorf("weights digest mismatch for %s", sub.TxHash.Short())
		}
		weights, err := nn.DecodeWeights(blob)
		if err != nil {
			return nil, fmt.Errorf("weights blob corrupt for %s: %w", sub.TxHash.Short(), err)
		}
		name := contract.NameOf(st, sub.Sender)
		if name == "" {
			name = sub.Sender.Short()
		}
		out = append(out, &fl.Update{
			Client:     name,
			Round:      round,
			Weights:    weights,
			NumSamples: int(sub.NumSamples),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out, nil
}

// arrivalTimes computes the deterministic arrival-time model: each
// peer's update becomes visible at train-duration + network delay —
// and, when CommitLatency modeling is on, not before the ledger's next
// commit boundary (the simnet visibility rule), so wait policies face
// the block-interval delays the backend implies.
func arrivalTimes(cfg Config, peers []*peerState, updates []*fl.Update, commitIntervalMs float64) map[string]float64 {
	out := make(map[string]float64, len(peers))
	for i, p := range peers {
		blobKB := float64(nn.EncodedSize(len(updates[i].Weights))) / 1024
		at := p.simTrainMs + cfg.BaseLatencyMs + blobKB*cfg.PerKBMs
		if cfg.CommitLatency {
			at = simnet.CommitVisibilityMs(at, commitIntervalMs)
		}
		out[p.name] = at
	}
	return out
}

// applyPolicy builds the observer's arrival view — its own update at
// training completion (no network hop), remote updates at their
// modeled visibility — and fires the shared core.FirePolicy rule over
// it, returning the included subset and the firing time. A peer's own
// update is always part of the aggregation, matching the paper: a
// peer never discards its own local model.
func applyPolicy(policy core.WaitPolicy, self string, selfTrainMs float64, updates []*fl.Update, remoteArrival map[string]float64) ([]*fl.Update, float64) {
	arrivals := make([]core.Arrival, len(updates))
	for i, u := range updates {
		at := remoteArrival[u.Client]
		if u.Client == self {
			at = selfTrainMs
		}
		arrivals[i] = core.Arrival{AtMs: at, Index: i, Self: u.Client == self}
	}
	sort.Slice(arrivals, func(i, j int) bool {
		if arrivals[i].AtMs != arrivals[j].AtMs {
			return arrivals[i].AtMs < arrivals[j].AtMs
		}
		return updates[arrivals[i].Index].Client < updates[arrivals[j].Index].Client
	})
	n, firedAt := core.FirePolicy(policy, arrivals, len(updates))
	included := make([]*fl.Update, n)
	for i, a := range arrivals[:n] {
		included[i] = updates[a.Index]
	}
	return included, firedAt
}

// comboLabel renders a combo's client names (sorted) using the decision's
// kept-client ordering.
func comboLabel(combo fl.Combo, keptClients []string) string {
	parts := make([]string, 0, len(combo))
	for _, idx := range combo {
		parts = append(parts, keptClients[idx])
	}
	sort.Strings(parts)
	var buf bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(p)
	}
	return buf.String()
}

// chainStats summarizes the ledger's committed footprint.
func chainStats(be ledger.Backend) ChainStats {
	fp := be.Footprint()
	out := ChainStats{
		Blocks:  fp.Blocks,
		Txs:     fp.Txs,
		GasUsed: fp.GasUsed,
		Bytes:   fp.Bytes,
	}
	for _, tx := range be.CommittedTxs(0) {
		if method, _, err := contract.DecodeCall(tx.Payload); err == nil {
			switch method {
			case "submit":
				out.Submissions++
			case "record":
				out.Decisions++
			}
		}
	}
	return out
}
