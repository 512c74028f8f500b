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
// bit-reproducible. RunVanilla (vanilla.go) is the centralized baseline
// over the same World: one aggregator, no ledger.
package bfl

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
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
	// Hyper overrides the training configuration.
	Hyper fl.Hyper
	// Policy is each peer's wait policy (the zero value waits for all).
	Policy core.Policy
	// Filter screens abnormal models before aggregation.
	Filter core.Filter
	// Backend names the consensus substrate rounds commit through
	// ("" = the ledger default, the proof-of-work path; see
	// internal/ledger for the registry).
	Backend string
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
	// modeled training duration (heterogeneous compute), on both
	// schedules. The zero value keeps durations fixed at the calibrated
	// model and draws nothing.
	Compute simnet.Dist
	// Network, when set, draws extra per-submission propagation delay
	// in ms on top of base latency + size/bandwidth (network jitter),
	// on both schedules.
	Network simnet.Dist
	// TimeBudgetMs caps the asynchronous run's virtual horizon: peers
	// stop opening new rounds past it and any peer still waiting
	// aggregates what it has. 0 means no cap (run until every peer
	// finishes Rounds aggregations). Ignored by the barriered runner.
	TimeBudgetMs float64
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
	// its adopted weights and pre-derived RNG stream and every result
	// lands in an index-addressed slot or is joined at one fixed event,
	// so results are bit-identical at any setting (see internal/par).
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
	// sweep builds one per seed), or a shard's Block of one. Excluded
	// from serialization.
	World *World `json:"-"`
	// Backbone, when non-nil, supplies NewWorld with EffNetSim's Backbone.
	Backbone func() []float32 `json:"-"`
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
	if c.SelectionSize < 0 {
		return fmt.Errorf("bfl: negative selection size %d", c.SelectionSize)
	}
	if c.TestPerPeer < 0 {
		return fmt.Errorf("bfl: negative count of %d test samples per peer", c.TestPerPeer)
	}
	if c.StragglerFactor != nil && len(c.StragglerFactor) != c.Peers {
		return fmt.Errorf("bfl: %d straggler factors for %d peers", len(c.StragglerFactor), c.Peers)
	}
	for i, f := range c.StragglerFactor {
		if !(f > 0 && f <= math.MaxFloat64) {
			return fmt.Errorf("bfl: peer %d's straggler factor %g is not finite and positive", i, f)
		}
	}
	if !(c.ClientFraction >= 0 && c.ClientFraction <= 1) {
		return fmt.Errorf("bfl: client fraction %g outside (0, 1]", c.ClientFraction)
	}
	if !(c.DirichletAlpha >= 0 && c.DirichletAlpha <= math.MaxFloat64) {
		return fmt.Errorf("bfl: Dirichlet alpha %g is not finite and non-negative", c.DirichletAlpha)
	}
	if !(c.Filter.MaxBelowBest >= 0) {
		return fmt.Errorf("bfl: filter margin %g is negative or NaN", c.Filter.MaxBelowBest)
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
	if err := c.Policy.Validate(); err != nil {
		return fmt.Errorf("bfl: wait policy: %w", err)
	}
	if err := c.Compute.Validate(); err != nil {
		return fmt.Errorf("bfl: compute distribution: %w", err)
	}
	if err := c.Network.Validate(); err != nil {
		return fmt.Errorf("bfl: network distribution: %w", err)
	}
	if !(c.TimeBudgetMs >= 0) {
		return fmt.Errorf("bfl: negative time budget %g", c.TimeBudgetMs)
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
	// ComputeMs, PropagateMs, CommitMs and IdleMs split WaitMs into the
	// terms of the update that fired the policy (simnet.WaitTerms).
	ComputeMs, PropagateMs, CommitMs, IdleMs float64
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
	// adopted is the weight vector training starts from next round,
	// adoptedKey its provenance key.
	adopted    []float32
	adoptedKey fl.Key
	// simTrainMs is the training-duration model used for arrival
	// times (samples x epochs x multiply-adds / rate x straggler).
	simTrainMs float64
	// arrive draws the barriered round's Compute and Network samples
	// (nil when neither distribution is set).
	arrive *xrand.RNG
	// avg is the asynchronous merge's accumulator: p.adopted aliases
	// its result until the next merge.
	avg     fl.Averager
	testAcc fl.Evaluator // scores weights on the peer's test set
}

// mulAddsPerMs is the modeled training rate: a sample costs its forward
// multiply-adds, SimpleNN's 61,640 being 0.0008 ms (DESIGN §1).
const mulAddsPerMs = 77_050_000

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
func runDecentralized(ctx context.Context, cfg Config) (_ *RoundEngine, err error) {
	r, err := NewRoundEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer r.e.leave(&err)
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
	// txIdx incrementally indexes the committed transactions by hash,
	// so each one is hashed once per run instead of once per round.
	txIdx txIndex

	// roundUpdates is the deciding round's submissions read back from
	// the chain: decoded once, shared read-only by the decide pool
	// (Decide, Filter.Apply and FedAvg only read them), dropped at round
	// end so retained heap does not grow.
	roundUpdates []*fl.Update
	memoNext     int                   // the first round of the world's memo not passed
	verifyRound  int                   // the memo round pbft's verification files under
	failed       atomic.Pointer[error] // a failed shared score met
}

// txIndex is the committed-transaction hash index.
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
	w, err := cfg.ResolveWorld()
	if err != nil {
		return nil, err
	}
	e := &engine{cfg: cfg, sink: cfg.Events, root: xrand.New(cfg.Seed), w: w}
	if err := e.setup(); err != nil {
		return nil, err
	}
	e.txIdx.byHash = make(map[chain.Hash]*chain.Transaction)
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

// train is peer p's local training of round from its adopted weights.
// The update's key digests what the training is a function of (peer,
// Hyper, round, adopted key); unnamed adopted weights train unnamed.
func (e *engine) train(p *peerState, round int) (*fl.Update, error) {
	from := p.adoptedKey
	en := e.w.memo.do(round, memoKey{set: p.client.Train, hyper: e.cfg.Hyper, weights: from}, fl.Vector(p.adopted), func(en *memoEntry) {
		en.up, en.err = e.w.scratch.Train(p.client, p.adopted, round)
		if en.err == nil && from != (fl.Key{}) {
			en.up.Key = sha256.Sum256(fmt.Appendf(from[:], "%s %v %d", p.name, e.cfg.Hyper, round))
		}
	})
	return en.up, en.err
}

// scorer is eval over set, filed under the first round this run has
// not passed. A failed shared score aborts the run; leave returns it.
func (e *engine) scorer(set *dataset.Set, eval fl.Evaluator) fl.Evaluator {
	return func(key fl.Key, weights func() []float32) float64 {
		return e.must(e.w.memo.do(e.memoNext, memoKey{set: set, weights: key}, weights, func(en *memoEntry) { en.acc, en.err = eval(key, weights), nil })).acc
	}
}

// must is en unless it failed, in which case it aborts the run with
// en's error, which leave returns.
func (e *engine) must(en *memoEntry) *memoEntry {
	if en.err != nil {
		e.failed.Store(&en.err)
		panic(en.err)
	}
	return en
}

// verify is pbft's model verification (ledger.Config.Verify): the
// world's held-out score of the model subs carry, decoded through the
// read-back's entries. Runs sharing the world score each submission,
// and each accepted batch's mean, once, filed under verifyRound.
func (e *engine) verify(subs []*chain.Transaction) float64 {
	k := memoKey{tx: subs[0], verify: true}
	for _, tx := range subs[1:] {
		h := tx.Hash()
		k.label += string(h[:])
	}
	return e.must(e.w.memo.do(e.verifyRound, k, nil, func(en *memoEntry) {
		decode := func(tx *chain.Transaction) ([]float32, error) { return e.decode(e.verifyRound, tx) }
		en.acc, en.err = ledger.ScoreMean(subs, decode, e.w.verify), nil
	})).acc
}

// decode is the weight vector submission tx carries: runs sharing the
// world decode each once, pbft's verification and readUpdates alike,
// and share it read-only.
func (e *engine) decode(round int, tx *chain.Transaction) ([]float32, error) {
	en := e.w.memo.do(round, memoKey{tx: tx}, nil, func(en *memoEntry) { en.vec, en.err = ledger.DecodeSubmission(tx) })
	return en.vec, en.err
}

// average is a chosen combination's weights (core.Aggregator.Average):
// the peers of every run sharing the world average each once a round
// and share it read-only; without a memo each averages its own.
func (e *engine) average(round int, key fl.Key, picked []*fl.Update) ([]float32, error) {
	en := e.w.memo.do(round, memoKey{weights: key, mean: true}, nil, func(en *memoEntry) { en.vec, en.err = fl.FedAvg(picked) })
	return en.vec, en.err
}

// passMemo passes the rounds up to r, releasing those all runs passed.
func (e *engine) passMemo(r int) {
	for m := e.w.memo; m != nil && e.memoNext <= r; e.memoNext++ {
		m.mu.Lock()
		if m.passed[e.memoNext]++; m.passed[e.memoNext] == m.runs {
			m.rounds[e.memoNext] = nil
		}
		m.mu.Unlock()
	}
}

// leave, deferred by a run, passes every round, finished or failed, and
// returns a failed shared score as the run's error.
func (e *engine) leave(err *error) {
	e.passMemo(e.cfg.Rounds)
	if r := recover(); r != nil {
		if e.failed.Load() == nil {
			panic(r)
		}
		*err = *e.failed.Load()
	}
}

// registerAt submits every peer's identity-registration transaction
// and commits them as the first batch (round 0) at the instant the
// caller supplies — whoever owns time owns the registration block's
// timestamp.
func (e *engine) registerAt(tsMs float64) error {
	for _, p := range e.peers {
		tx, err := e.signTx(p, 0, memoKey{weights: e.w.initialKey}, contract.RegistryAddress, 1_000_000,
			func() ([]byte, error) { return contract.RegisterCallData(p.name), nil })
		if err != nil {
			return err
		}
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
		Peers:   len(active),
		Chain:   ccfg,
		Alloc:   alloc,
		Proc:    vm,
		Sealers: sealers,
		Verify:  e.verify,
	})
	if err != nil {
		return err
	}

	// --- Peers ---------------------------------------------------------------
	// Building peers is embarrassingly parallel: every stream below
	// derives by label from the root (which is never advanced), and each
	// item writes only its own slot, so the fleet is identical at any
	// Parallelism.
	workers, mulAdds := par.Workers(cfg.Parallelism), float64(w.scratch.MulAdds())
	peers := make([]*peerState, len(active))
	if err := par.ForEach(workers, len(active), func(s int) error {
		gi := active[s]
		name := fl.ClientName(gi)
		train, sel, test := w.train[s], w.sel[s], w.test[s]
		straggler := 1.0
		if cfg.StragglerFactor != nil {
			straggler = cfg.StragglerFactor[gi]
		}
		p := &peerState{
			name:       name,
			key:        peerKeys[s],
			client:     fl.NewClient(name, nil, train, sel, test, cfg.Hyper, root.Derive("train-"+name)),
			adopted:    w.initial,
			adoptedKey: w.initialKey,
			simTrainMs: float64(train.Len()*cfg.Hyper.LocalEpochs) * (mulAdds / mulAddsPerMs) * straggler,
		}
		if !cfg.Compute.IsZero() || !cfg.Network.IsZero() {
			p.arrive = root.Derive("arrive-" + name)
		}
		p.testAcc = e.scorer(test, w.scratch.Evaluator(test))
		p.agg = core.NewAggregator(name, cfg.Policy, cfg.Filter, e.scorer(sel, w.scratch.Evaluator(sel)), root.Derive("ties-"+name))
		p.agg.Workers, p.agg.Scratch, p.agg.Average = workers, w.scratch, e.average
		if subsampled {
			p.agg.MaxComboPeers = maxSubsampleCombo
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
		for _, combo := range fl.PaperCombos(n, i) {
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

	e.passMemo(round - 1) // scores are filed under round from here
	e.verifyRound = round
	sink.Emit(event.RoundStart{Round: round})
	// 1. Local training (each peer from its adopted weights). Peers
	// train concurrently, each in a borrowed model on its own RNG
	// stream, and each writes only its own result slot.
	updates := make([]*fl.Update, nPart)
	if err := par.ForEachCtx(ctx, workers, nPart, func(i int) (err error) {
		updates[i], err = e.train(peers[i], round)
		return err
	}); err != nil {
		return err
	}
	sent := e.drawArrivals(peers, updates)
	for i, p := range peers {
		sink.Emit(event.PeerTrained{Round: round, Peer: p.name, Samples: updates[i].NumSamples, SimMs: sent[p.name].TrainedMs})
	}

	// 2. Submit signed model transactions; gossip into every peer's
	// pending set and commit the round's submission block. Peers encode
	// and sign concurrently; the gossip stays serial, in slot order.
	subTxs := make([]*chain.Transaction, nPart)
	blobBytes := make([]int, nPart)
	if err := par.ForEachCtx(ctx, workers, nPart, func(i int) error {
		var err error
		subTxs[i], blobBytes[i], err = e.submitTx(peers[i], round, updates[i])
		return err
	}); err != nil {
		return err
	}
	for _, tx := range subTxs {
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

	// 3. The round's submissions are read back from the chain once —
	// every peer reads the same one — and each peer applies its wait
	// policy over the arrival-time model, decides, and records the
	// decision. Peers decide concurrently: each reads the shared
	// updates without writing them, mutates only its own state, and
	// fills index-addressed slots, so the block assembled below is
	// identical to the sequential run's.
	shared, err := e.readUpdates(round, updates)
	if err != nil {
		return fmt.Errorf("bfl: round %d: %w", round, err)
	}
	e.roundUpdates = shared
	defer func() { e.roundUpdates = nil }()
	decTxs := make([]*chain.Transaction, nPart)
	intervalMs := 0.0
	if cfg.CommitLatency {
		intervalMs = be.CommitLatencyMs()
	}
	if err := par.ForEachCtx(ctx, workers, nPart, func(i int) error {
		p := peers[i]
		// A peer whose own submission the backend's verification
		// rejected still aggregates with its local update — a peer
		// never discards its own model (and Decide requires it). It
		// adds it to a copy: the shared slice is read-only.
		onChain := shared
		if !slices.ContainsFunc(shared, func(u *fl.Update) bool { return u.Client == p.name }) {
			onChain = append(slices.Clip(shared), updates[i])
			sort.Slice(onChain, func(a, b int) bool { return onChain[a].Client < onChain[b].Client })
		}
		sends := make([]simnet.Send, len(onChain))
		for k, u := range onChain {
			sends[k] = sent[u.Client]
			sends[k].Own = u.Client == p.name
		}
		at, waitMs := simnet.WalkRound(cfg.Policy, sends, intervalMs)
		included := make([]*fl.Update, len(at))
		for k, j := range at {
			included[k] = onChain[j]
		}
		decision, err := p.agg.Decide(round, included, time.Duration(waitMs*float64(time.Millisecond)), nPart)
		if err != nil {
			return fmt.Errorf("bfl: %s round %d: %w", p.name, round, err)
		}
		p.adopted, p.adoptedKey = decision.Chosen.Weights, decision.Chosen.Key

		chosenLabel := clientLabel(len(decision.Chosen.Combo), func(k int) string {
			return decision.KeptClients[decision.Chosen.Combo[k]]
		})
		stats := RoundStats{
			Round:          round,
			Included:       len(included),
			WaitMs:         waitMs,
			ChosenCombo:    chosenLabel,
			ChosenAccuracy: p.testAcc(decision.Chosen.Key, fl.Vector(decision.Chosen.Weights)),
			Rejected:       decision.RejectedClients,
		}
		stats.ComputeMs, stats.PropagateMs, stats.CommitMs, stats.IdleMs = simnet.WaitTerms(sends[at[len(at)-1]], intervalMs, waitMs)
		res.Rounds[slots[i]] = append(res.Rounds[slots[i]], stats)

		// Table rows: evaluate every paper combo over the full
		// update set — independent of the wait policy AND of ledger
		// verification (which can exclude a peer's update from
		// onChain), so every labeled row stays defined each round.
		if cfg.EvalAllCombos {
			results, err := e.w.scratch.EvaluateCombos(updates, fl.PaperCombos(len(e.peers), i), e.w.scratch.Evaluator(p.client.Test), workers)
			if err != nil {
				return err
			}
			row := make([]float64, len(results))
			for c, r := range results {
				row[c] = r.Accuracy
			}
			res.ComboAccuracy[slots[i]] = append(res.ComboAccuracy[slots[i]], row)
		}

		decTxs[i], err = e.recordTx(p, round, chosenLabel, decision.Chosen.Key, decision.Chosen.Weights, len(decision.Chosen.Combo))
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

// submitTx signs peer p's model-submission transaction for round, the
// update encoded straight into the calldata, and reports the encoded
// size. Touches only p, so the submit pool may call it per peer.
func (e *engine) submitTx(p *peerState, round int, up *fl.Update) (*chain.Transaction, int, error) {
	size := nn.EncodedSize(len(up.Weights))
	tx, err := e.signTx(p, round, memoKey{weights: up.Key}, contract.AggregationAddress, 10_000_000, func() ([]byte, error) {
		head := contract.SubmitCallHead(uint64(round), uint64(e.cfg.Model), uint64(up.NumSamples), size)
		return nn.AppendWeights(head, up.Weights), nil
	})
	return tx, size, err
}

// recordTx signs peer p's aggregation-record transaction: the label of
// the n updates it merged and the digest of the weights it adopted,
// named by key (the paper's non-repudiation trail). Touches only p, so
// the decide pool may call it per peer.
func (e *engine) recordTx(p *peerState, round int, label string, key fl.Key, adopted []float32, n int) (*chain.Transaction, error) {
	return e.signTx(p, round, memoKey{weights: key, label: label, n: n}, contract.AggregationAddress, 1_000_000, func() ([]byte, error) {
		rh := e.w.memo.do(round, memoKey{weights: key}, nil, func(en *memoEntry) { en.sum, en.err = nn.HashWeights(adopted), nil })
		return contract.RecordCallData(uint64(round), label, rh.sum, uint64(n)), rh.err
	})
}

// signTx signs peer p's next transaction, a call to the contract at to
// carrying what payload builds, and runs its stateless checks where the
// caller runs, so a pool worker pays for the first signature check and
// hash, not the mempool admission on the coordinator that follows. Runs
// sharing a world sign it once: with p's address and nonce, k names the
// payload, filed under round (DESIGN §5).
func (e *engine) signTx(p *peerState, round int, k memoKey, to keys.Address, execBudget uint64, payload func() ([]byte, error)) (*chain.Transaction, error) {
	k.from, k.nonce = p.key.Address(), p.nonce
	en := e.w.memo.do(round, k, nil, func(en *memoEntry) {
		data, err := payload()
		if err == nil {
			en.tx, err = chain.NewTx(p.key, p.nonce, to, 0, data, e.gas, execBudget, 1)
		}
		if err == nil {
			err = en.tx.ValidateBasic(e.gas)
		}
		en.err = err
	})
	if en.err != nil {
		return nil, en.err
	}
	p.nonce++
	return en.tx, nil
}

// readUpdates reconstructs the round's model updates from the ledger:
// contract records give digests + carrying-tx hashes; the weight bytes
// are fetched from committed-tx calldata and verified against the
// recorded digest, which pins them to the sender's submitted update,
// so they take its key from trained. Every peer reads the same chain,
// so the coordinator reads it once per round and the decide pool
// shares the result; runs sharing a world, and so a committed tx,
// decode it once. The committed-tx hash index is incremental (new
// txs are hashed once, not once per round). A round whose every
// submission failed ledger verification reads as the empty set — each
// peer then aggregates its own local update alone.
func (e *engine) readUpdates(round int, trained []*fl.Update) ([]*fl.Update, error) {
	be := e.be
	st := be.StateView(0)
	subs := contract.SubmissionsAt(st, uint64(round))
	idx := &e.txIdx
	txs := be.CommittedTxs(0)
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
		if _, ok := call.SubmitBlob(); !ok {
			return nil, fmt.Errorf("carried payload malformed for %s", sub.TxHash.Short())
		}
		if call.BlobHash() != sub.WeightsHash {
			return nil, fmt.Errorf("weights digest mismatch for %s", sub.TxHash.Short())
		}
		name := contract.NameOf(st, sub.Sender)
		if name == "" {
			name = sub.Sender.Short()
		}
		u := &fl.Update{Client: name, Round: round, NumSamples: int(sub.NumSamples)}
		if i := slices.IndexFunc(trained, func(t *fl.Update) bool { return t.Client == name }); i >= 0 {
			u.Key = trained[i].Key
		}
		var err error
		if u.Weights, err = e.decode(round, tx); err != nil {
			return nil, fmt.Errorf("weights blob corrupt for %s: %w", sub.TxHash.Short(), err)
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out, nil
}

// drawArrivals draws the round's arrival model on the coordinator, in
// slot order, keyed by peer name: each participant's training duration
// (the calibrated one times a Compute draw) and send time, (trained +
// base latency) + size·perKB plus a Network draw. A run with neither
// distribution set draws nothing.
func (e *engine) drawArrivals(peers []*peerState, updates []*fl.Update) map[string]simnet.Send {
	out := make(map[string]simnet.Send, len(peers))
	for i, p := range peers {
		trained := p.simTrainMs * e.cfg.Compute.Draw(p.arrive)
		blobKB := float64(nn.EncodedSize(len(updates[i].Weights))) / 1024
		sentMs := trained + baseLatencyMs + blobKB*perKBMs
		if !e.cfg.Network.IsZero() {
			sentMs += e.cfg.Network.Draw(p.arrive)
		}
		out[p.name] = simnet.Send{TrainedMs: trained, SentMs: sentMs}
	}
	return out
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
