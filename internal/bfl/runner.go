// Package bfl assembles the full system: fully coupled blockchain-FL
// peers that train locally, submit models through the aggregation
// contract on a ledger backend (pow, poa, pbft or instant), personalize
// their aggregation with the core engine, and record their decisions
// on-chain.
//
// One assembly (engine.setup: identities, ledger, peers over a World's
// data — the classic and the subsampled cross-device fleet alike) feeds two
// schedules. The barriered schedule is RoundEngine (rounds.go): one
// round body driven with explicit commit instants; Run is its flat
// driver, laying rounds at the backend's own cadence to regenerate
// Tables II-IV and the wait-policy trade-off study, and internal/shard
// drives many of them from one shared clock. RunAsync (async.go) is the
// event-driven free run on a virtual clock of its own. Both commit
// through a ledger.Backend via one commit step and one pair of
// transaction builders, with block production sequenced so results are
// bit-reproducible.
package bfl

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/ledger/latmodel"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
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
	// Compute, when set, draws a per-peer per-round multiplier on the
	// modeled training duration (heterogeneous compute). The zero
	// value keeps durations fixed at the calibrated model. Used by the
	// asynchronous engine (RunAsync); the barriered runner keeps its
	// historical fixed model.
	Compute simnet.Dist
	// Network, when set, draws extra per-submission propagation delay
	// in ms on top of base latency + size/bandwidth (network jitter).
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
	// Parallelism bounds the worker pool for per-peer local training
	// (async included), per-peer aggregation decisions, and the
	// per-peer combination searches. 0 means runtime.NumCPU(); 1
	// restores the exact sequential schedule. Every peer trains from
	// its own model and pre-derived RNG stream and every result lands
	// in an index-addressed slot or is joined at one fixed event, so
	// results are bit-identical at any setting (see internal/par).
	Parallelism int
	// Events, when non-nil, receives the typed event stream (round
	// boundaries, per-peer training, on-chain submissions, aggregation
	// decisions) in deterministic logical order: events are emitted
	// only from the coordinator goroutine at pool barriers, in peer
	// index order, so the stream is identical at every Parallelism and
	// attaching a sink never changes results. Excluded from
	// serialization: it is an observer, not configuration.
	Events event.Sink `json:"-"`
	// World, when non-nil, is the NewWorld the run reads its data and
	// initial weights from, bit-identical to building its own (so a
	// sweep builds one per seed). Excluded from serialization.
	World *World `json:"-"`
}

// DefaultPeers is the fleet size a zero Config.Peers stands for: the
// paper's three fully coupled participants.
const DefaultPeers = 3

func (c Config) withDefaults() Config {
	if c.Model == 0 {
		c.Model = nn.ModelSimpleNN
	}
	if c.Peers == 0 {
		c.Peers = DefaultPeers
	}
	if c.Rounds == 0 {
		c.Rounds = 10
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
	if c.TrainPerPeer < c.Hyper.BatchSize {
		// nn.TrainEpochScratch runs full minibatches only: a smaller
		// shard would train nothing and report chance accuracy.
		return fmt.Errorf("bfl: %d training samples per peer is less than one minibatch of %d", c.TrainPerPeer, c.Hyper.BatchSize)
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
	return nil
}

// The simulated network the arrival model uses: per-submission base
// latency plus transfer time per KB (~100 Mbit/s).
const (
	baseLatencyMs = 20
	perKBMs       = 0.08
)

// peerFunding is every peer's genesis balance: gas never runs out.
const peerFunding = 1 << 62

// chainConfig is the consensus parameters every run uses: the chain
// defaults at a difficulty low enough for in-process mining.
func chainConfig() chain.Config {
	c := chain.DefaultConfig()
	c.GenesisDifficulty = 64
	c.MinDifficulty = 16
	return c
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

// Result is the complete decentralized experiment output: only what
// the run determines, so the public report is this type.
type Result struct {
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
	// testEvals are the worker evaluators over the peer's test set that
	// score the Tables II-IV combination grid (set only when
	// EvalAllCombos); testAvgs pairs them with per-worker scratch
	// accumulators reused across rounds. One worker is the client's own
	// model over avg — no extra scratch model at Parallelism 1.
	testEvals []fl.Evaluator
	testAvgs  []*fl.Averager
	// avg is the peer's own scratch accumulator: the one-worker table
	// path and the asynchronous merge (rows and merges are adopted by
	// copy or discarded, never retained).
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

// Run executes the full blockchain-FL experiment on the barriered
// schedule, with cooperative cancellation: the context is checked
// between rounds and between pool items (per-peer training and
// per-peer decisions), and ctx.Err() is returned — with no partial
// result — within one round boundary of cancellation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	r, err := runDecentralized(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return r.Finish(), nil
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
// block-sealing backend (pow, poa, pbft); instant keeps no blocks and
// returns an error.
func RunDecentralizedWithChain(cfg Config) (*ResultWithChain, error) {
	r, err := runDecentralized(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	ch, ok := r.e.be.(ledger.Chainer)
	if !ok {
		return nil, fmt.Errorf("bfl: backend %q keeps no block chain", r.BackendName())
	}
	return &ResultWithChain{Result: r.Finish(), CanonicalChain: ch.Chain(0)}, nil
}

// AuditChain is the audit replay of a saved pow chain, from its bytes
// alone: block 0 must be the genesis of the consensus parameters every
// run uses, and the block rule is folded over the rest — each block
// linked to its parent, its puzzle and header checked, every
// transaction re-executed on the contract VM — with every sender funded
// the way setup funds a peer. It returns the replayed world state, or
// an error naming the first offending block and the rule it broke.
func AuditChain(blocks []*chain.Block) (*chain.State, error) {
	ccfg := chainConfig()
	for i, b := range blocks {
		if b == nil {
			return nil, fmt.Errorf("block %d: missing", i)
		}
	}
	if len(blocks) == 0 || blocks[0].Header != chain.Genesis(ccfg).Header || len(blocks[0].Txs) != 0 {
		return nil, fmt.Errorf("block 0: not the genesis of this chain configuration")
	}
	st := chain.NewState()
	for _, b := range blocks {
		for _, tx := range b.Txs {
			st.Account(tx.From).Balance = peerFunding
		}
	}
	vm := contract.NewVM(ccfg.Gas)
	for i, b := range blocks[1:] {
		if err := chain.ApplyBlock(ccfg, &blocks[i].Header, b, st, vm, chain.VerifyPoW); err != nil {
			return nil, fmt.Errorf("block %d: %w", i+1, err)
		}
	}
	return st, nil
}

// runDecentralized is the barriered schedule at the backend's own
// cadence: a RoundEngine driven with explicit commit instants —
// registration at one step, round r's submission and decision blocks
// at 2r and 2r+1 steps (whole-ms floats, so the products equal the
// repeated additions of a ticking clock bit-for-bit). The sharded
// orchestrator drives the same engine from its shared clock; there is
// no second copy of the loop to keep in agreement.
func runDecentralized(ctx context.Context, cfg Config) (*RoundEngine, error) {
	r, err := NewRoundEngine(cfg)
	if err != nil {
		return nil, err
	}
	step := r.CommitStepMs()
	if err := r.RegisterAt(step); err != nil {
		return nil, err
	}
	for round := 1; round <= r.e.cfg.Rounds; round++ {
		if _, err := r.RunRoundAt(ctx, round, float64(2*round)*step, float64(2*round+1)*step); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// engine is the assembled experiment: data sharded, peers built,
// ledger backend up. Both schedules consume it — the barriered
// schedule takes explicit commit instants from whoever owns time
// (RoundEngine), the asynchronous runner owns a virtual clock and
// drives it as an event queue (RunAsync).
type engine struct {
	cfg  Config
	sink event.Sink
	root *xrand.RNG
	w    *World // the run's data, initial weights and participant schedule

	be ledger.Backend
	// gas prices every transaction the peers sign (chainConfig's).
	gas   chain.GasSchedule
	peers []*peerState

	workers int

	// clockStep is the backend's commit cadence in ms (integral: the
	// historical runner quantized it to whole ms, and bit-compatibility
	// keeps that).
	clockStep float64

	// verifyRejected accumulates ledger-verification rejections across
	// every commit of the run (pbft model screening).
	verifyRejected int

	// everyone is every slot index, ascending: the participant set of a
	// round with no schedule (World.participants).
	everyone []int
	// txIdx[peer] incrementally indexes that peer's committed-tx view by
	// hash, so each transaction is hashed once per view instead of once
	// per round. Slot-addressed: the decide pool touches only its own
	// peer's entry.
	txIdx []txIndex

	// roundWeights is the deciding round's decoded submissions, keyed by
	// carrying transaction: decoded once, shared read-only by the decide
	// pool (Decide, Filter.Apply and FedAvg only read Update.Weights),
	// dropped at round end so retained heap does not grow.
	roundMu      sync.Mutex
	roundWeights map[*chain.Transaction][]float32

	// blobScratch is submitTx's reusable weight-encoding buffer
	// (coordinator goroutine only): one allocation the first
	// submission, zero after.
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
	w, err := cfg.world()
	if err != nil {
		return nil, err
	}
	e := &engine{cfg: cfg, sink: cfg.Events, root: xrand.New(cfg.Seed), w: w}
	if err := e.setup(); err != nil {
		return nil, err
	}
	e.txIdx = make([]txIndex, len(e.peers))
	e.everyone = upTo(len(e.peers))
	return e, nil
}

// upTo returns the indices 0..n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// registerAt submits every peer's identity-registration transaction
// and commits them as the first batch (round 0) at the instant the
// caller supplies — whoever owns time owns the registration block's
// timestamp.
func (e *engine) registerAt(tsMs float64) error {
	for _, p := range e.peers {
		tx, err := chain.NewTx(p.key, p.nonce, contract.RegistryAddress, 0,
			contract.RegisterCallData(p.name), e.gas, 1_000_000, 1)
		if err != nil {
			return err
		}
		p.nonce++
		if err := e.be.Submit(tx); err != nil {
			return fmt.Errorf("bfl: registration tx: %w", err)
		}
	}
	if err := e.commitExactly(0, 0, len(e.peers), tsMs); err != nil {
		return fmt.Errorf("bfl: registration block: %w", err)
	}
	return nil
}

// setup builds peers over the world's data and brings the ledger up —
// one assembly for both regimes. The classic cross-silo schedule is the
// case "active cohort = every fleet index, no participant schedule";
// under ClientFraction only the union of the pre-drawn per-round
// samples is materialized and the ledger is sized to that cohort
// (subsample.go). Identities — keys, names, data streams — are keyed by
// fleet index, so the same device is the same device in either regime.
// What else depends on the regime, observable from cfg.ClientFraction:
// where a peer's training shard comes from (NewWorld), and whether the
// per-pair combination grid (and its worker evaluators) exists.
func (e *engine) setup() error {
	subsampled := e.cfg.ClientFraction > 0
	if subsampled {
		e.cfg.EvalAllCombos = false // per-pair grids are a cross-silo artifact
	}
	cfg, root, w := e.cfg, e.root, e.w
	ccfg, active := chainConfig(), w.active

	// --- Ledger, sized to the cohort ---------------------------------------
	vm := contract.NewVM(ccfg.Gas)
	peerKeys := make([]*keys.Key, len(active))
	alloc := make(map[keys.Address]uint64, len(active))
	sealers := make([]keys.Address, len(active))
	for s, gi := range active {
		peerKeys[s] = keys.GenerateDeterministic(cfg.Seed*1009 + uint64(gi))
		alloc[peerKeys[s].Address()] = peerFunding
		sealers[s] = peerKeys[s].Address()
	}
	be, err := ledger.New(cfg.Backend, ledger.Config{
		Peers:      len(active),
		Chain:      ccfg,
		Alloc:      alloc,
		Proc:       vm,
		Sealers:    sealers,
		Validators: cfg.Validators,
		Verify:     w.verifier(),
	})
	if err != nil {
		return err
	}

	// --- Peers ---------------------------------------------------------------
	// Building peers is embarrassingly parallel: every stream below
	// derives by label from the root (which is never advanced), and each
	// item writes only its own slot, so the fleet is identical at any
	// Parallelism.
	workers := par.Workers(cfg.Parallelism)
	// Worker-evaluator pools for the per-peer combination searches are
	// capped by the number of combinations a peer ever enumerates; the
	// cross-device regime caps the search itself instead
	// (maxSubsampleCombo) and keeps no pools.
	comboWorkers := 0
	if !subsampled {
		comboWorkers = min(workers, len(fl.PaperCombos(cfg.Peers, 0)))
	}
	peers := make([]*peerState, len(active))
	if err := par.ForEach(workers, len(active), func(s int) error {
		gi := active[s]
		name := fl.ClientName(gi)
		model := cfg.Model.Build(root.Derive("peer-model-" + name))
		train, sel, test := w.train[s], w.sel[s], w.test[s]
		client := fl.NewClient(name, model, train, sel, test, cfg.Hyper, root.Derive("train-"+name))
		straggler := 1.0
		if cfg.StragglerFactor != nil {
			straggler = cfg.StragglerFactor[gi]
		}
		p := &peerState{
			name:       name,
			key:        peerKeys[s],
			client:     client,
			adopted:    w.initial,
			samples:    train.Len(),
			simTrainMs: float64(train.Len()*cfg.Hyper.LocalEpochs) * perSampleCostMs(cfg.Model) * straggler,
		}
		p.agg = core.NewAggregator(name, cfg.Policy, cfg.Filter, client.SelectionEvaluator(), root.Derive("ties-"+name))
		switch {
		case subsampled:
			p.agg.MaxComboPeers = maxSubsampleCombo
		case comboWorkers > 1:
			// Independent scratch models let one peer's combination
			// search fan out without touching the client's model.
			p.agg.WorkerEvals = fl.SelectionEvaluators(cfg.Model, sel, comboWorkers)
			if cfg.EvalAllCombos {
				p.testEvals = fl.SelectionEvaluators(cfg.Model, test, comboWorkers)
				p.testAvgs = fl.NewAveragers(comboWorkers)
			}
		case cfg.EvalAllCombos:
			p.testEvals = []fl.Evaluator{client.TestAccuracy}
			p.testAvgs = []*fl.Averager{&p.avg}
		}
		peers[s] = p
		return nil
	}); err != nil {
		return err
	}

	// The commit cadence is the backend's own, so block timestamps
	// march at the interval the difficulty retarget rule targets — a
	// backend variant with a slower interval stays at its difficulty
	// equilibrium instead of climbing every block. For the default pow
	// substrate the cadence IS the chain's target interval, preserving
	// the historical schedule bit-for-bit; zero-latency backends
	// (instant) keep the legacy interval. Quantized to whole ms exactly
	// as the historical runner's uint64 clock was.
	step := uint64(be.CommitLatencyMs())
	if step == 0 {
		step = ccfg.TargetIntervalMs
	}
	e.clockStep = float64(step)
	e.be = be
	e.gas = ccfg.Gas
	e.peers = peers
	e.workers = workers
	return nil
}

// newResult builds the per-peer result scaffolding (names, combo row
// labels, empty round slices) for an assembled engine.
func (e *engine) newResult() *Result {
	cfg := e.cfg
	n := len(e.peers)
	res := &Result{
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
	if e.w.participants != nil {
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
// round: the pre-drawn K-of-N sample under ClientFraction, every slot
// otherwise.
func (e *engine) roundParticipants(round int) []int {
	if e.w.participants == nil || round < 1 || round >= len(e.w.participants) {
		return e.everyone
	}
	return e.w.participants[round]
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
	peers := make([]*peerState, len(slots))
	for k, s := range slots {
		peers[k] = e.peers[s]
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
		tx, size, err := e.submitTx(p, round, updates[i])
		if err != nil {
			return err
		}
		blobBytes[i] = size
		if err := be.Submit(tx); err != nil {
			return fmt.Errorf("bfl: round %d submission tx: %w", round, err)
		}
	}
	leader := (round - 1) % len(e.peers)
	if err := e.commitExactly(round, leader, nPart, subTs); err != nil {
		return fmt.Errorf("bfl: round %d submission block: %w", round, err)
	}
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
	e.roundWeights = make(map[*chain.Transaction][]float32, nPart)
	defer func() { e.roundWeights = nil }()
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

		chosenLabel := clientLabel(len(decision.Chosen.Combo), func(k int) string {
			return decision.KeptClients[decision.Chosen.Combo[k]]
		})
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
			results, err := fl.EvaluateCombosWith(updates, fl.PaperCombos(cfg.Peers, i), p.testEvals, p.testAvgs)
			if err != nil {
				return err
			}
			row := make([]float64, len(results))
			for c, r := range results {
				row[c] = r.Accuracy
			}
			res.ComboAccuracy[slots[i]] = append(res.ComboAccuracy[slots[i]], row)
		}

		decTxs[i], err = e.recordTx(p, round, chosenLabel, decision.Chosen.Weights, len(decision.Chosen.Combo))
		return err
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
	if err := e.commitExactly(round, leader, nPart, decTs); err != nil {
		return fmt.Errorf("bfl: round %d decision block: %w", round, err)
	}
	sink.Emit(event.RoundEnd{Round: round})
	return nil
}

// commit seals everything pending as one batch at virtual instant atMs
// — the one commit step both schedules share: the ledger commit, the
// BlockCommitted event, and the run's verification-rejection counter.
func (e *engine) commit(round, leader int, atMs float64) (ledger.Commit, error) {
	c, err := e.be.Commit(leader, uint64(atMs))
	if err != nil {
		return c, err
	}
	e.sink.Emit(event.BlockCommitted{
		Round:     round,
		Backend:   e.be.Name(),
		Height:    c.Height,
		Txs:       c.Txs,
		GasUsed:   c.GasUsed,
		LatencyMs: c.LatencyMs,
		VirtualMs: atMs,
		Rejected:  len(c.Rejected),
	})
	e.verifyRejected += len(c.Rejected)
	return c, nil
}

// commitExactly is commit for the barriered schedule, which never
// leaves a straggler pending: the batch must hold exactly the round's
// transactions.
func (e *engine) commitExactly(round, leader, wantTxs int, atMs float64) error {
	c, err := e.commit(round, leader, atMs)
	if err == nil && c.Txs != wantTxs {
		err = fmt.Errorf("committed %d of %d txs", c.Txs, wantTxs)
	}
	return err
}

// submitTx signs peer p's model-submission transaction for round,
// encoding the update through the engine's blob scratch (the calldata
// copies it), and reports the encoded size. Coordinator goroutine only.
func (e *engine) submitTx(p *peerState, round int, up *fl.Update) (*chain.Transaction, int, error) {
	blob := nn.AppendWeights(e.blobScratch[:0], up.Weights)
	e.blobScratch = blob[:0]
	payload := contract.SubmitCallData(uint64(round), uint64(e.cfg.Model), uint64(up.NumSamples), blob)
	tx, err := chain.NewTx(p.key, p.nonce, contract.AggregationAddress, 0, payload, e.gas, 10_000_000, 1)
	if err != nil {
		return nil, 0, err
	}
	p.nonce++
	return tx, len(blob), nil
}

// recordTx signs peer p's aggregation-record transaction: the label of
// the n updates it merged and the digest of the weights it adopted (the
// paper's non-repudiation trail). Touches only p, so the decide pool
// may call it per peer.
func (e *engine) recordTx(p *peerState, round int, label string, adopted []float32, n int) (*chain.Transaction, error) {
	var rh chain.Hash = nn.HashWeights(adopted)
	payload := contract.RecordCallData(uint64(round), label, rh, uint64(n))
	tx, err := chain.NewTx(p.key, p.nonce, contract.AggregationAddress, 0, payload, e.gas, 1_000_000, 1)
	if err != nil {
		return nil, err
	}
	p.nonce++
	return tx, nil
}

// readUpdates reconstructs the round's model updates from one peer's
// ledger view: contract records give digests + carrying-tx hashes; the
// weight bytes are fetched from committed-tx calldata and verified
// against this view's digest. Parse, digest and decode run once per tx
// (contract.CallOf, roundWeights): the Weights are shared, read-only.
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
		call, _ := contract.CallOf(tx)
		blob, ok := call.SubmitBlob()
		if !ok {
			return nil, fmt.Errorf("carried payload malformed for %s", sub.TxHash.Short())
		}
		if call.BlobHash() != sub.WeightsHash {
			return nil, fmt.Errorf("weights digest mismatch for %s", sub.TxHash.Short())
		}
		e.roundMu.Lock()
		weights, ok := e.roundWeights[tx]
		var err error
		if !ok {
			if weights, err = nn.DecodeWeights(blob); err == nil {
				e.roundWeights[tx] = weights
			}
		}
		e.roundMu.Unlock()
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
		at := p.simTrainMs + baseLatencyMs + blobKB*perKBMs
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

// clientLabel renders a set of n client names the way the on-chain
// record and the reports carry it: sorted, comma-joined.
func clientLabel(n int, name func(i int) string) string {
	names := make([]string, n)
	for i := range names {
		names[i] = name(i)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// chainStats summarizes the run's committed footprint.
func (e *engine) chainStats() ChainStats {
	fp := e.be.Footprint()
	out := ChainStats{
		Blocks:         fp.Blocks,
		Txs:            fp.Txs,
		GasUsed:        fp.GasUsed,
		Bytes:          fp.Bytes,
		VerifyRejected: e.verifyRejected,
	}
	for _, tx := range e.be.CommittedTxs(0) {
		if call, err := contract.CallOf(tx); err == nil {
			switch call.Method {
			case "submit":
				out.Submissions++
			case "record":
				out.Decisions++
			}
		}
	}
	return out
}
