// Package waitornot reproduces "Wait or Not to Wait: Evaluating
// Trade-Offs between Speed and Precision in Blockchain-based Federated
// Aggregation" (ICDCS 2024): a fully coupled blockchain-assisted
// federated learning system in which every participant trains locally,
// shares models over a permissionless proof-of-work chain, and
// personalizes its own aggregation — waiting for all models, or not.
//
// The package is the public facade over the internal engine, and it
// has one entry point: New(opts, ...).Run(ctx) executes an Experiment
// (RunSweep / RunCampaign replicate it over seeds). WithKind selects
// what runs; three kinds cover the paper's evaluation:
//
//   - KindVanilla — the centralized baseline (Table I / Figure 3):
//     one aggregator, "consider" vs "not consider" aggregation.
//   - KindDecentralized — the blockchain deployment (Tables II-IV /
//     Figure 4): every peer mines, submits models through the
//     aggregation contract, and adopts its best-scoring combination.
//   - KindTradeoff — the headline question: how much time does
//     asynchronous aggregation save, at what accuracy cost, under a
//     set of wait policies.
//
// KindAsync and KindSharded extend the same deployment to an
// un-barriered schedule and a sharded hierarchy. The scenario registry
// (LookupScenario, cmd/repro -scenario) names ready-made
// configurations of all five. Everything is deterministic given
// Options.Seed.
package waitornot

import (
	"cmp"
	"fmt"
	"time"

	"waitornot/internal/bfl"
	"waitornot/internal/core"
	"waitornot/internal/fl"
	"waitornot/internal/nn"
	"waitornot/internal/shard"
	"waitornot/internal/simnet"
)

// Model selects one of the paper's two architectures — the engine's own
// identifier, so the facade and the engines cannot disagree on it. It
// renders as "SimpleNN" / "EffNetB0Sim".
type Model = nn.ModelID

// The two evaluated models.
const (
	// SimpleNN is the paper's from-scratch 62K-parameter MLP.
	SimpleNN = nn.ModelSimpleNN
	// EffNetB0Sim is the compact pretrained CNN standing in for
	// EfficientNet-B0 (see DESIGN.md for the substitution argument).
	EffNetB0Sim = nn.ModelEffNetSim
)

// PolicyKind names a wait-policy family.
type PolicyKind int

// The wait policies of the trade-off study.
const (
	// WaitAll waits for every participant (synchronous aggregation).
	WaitAll PolicyKind = iota + 1
	// FirstK aggregates after the first K models arrive.
	FirstK
	// Timeout aggregates whatever has arrived after a deadline.
	Timeout
	// KOrTimeout fires at K models or the deadline, whichever first.
	KOrTimeout
)

// Policy selects when a peer stops waiting for other peers' models.
type Policy struct {
	Kind PolicyKind
	// K applies to FirstK / KOrTimeout.
	K int
	// TimeoutMs applies to Timeout / KOrTimeout.
	TimeoutMs float64
}

// Name renders the policy for reports.
func (p Policy) Name() string { return p.internal().Name() }

// Validate rejects policies the engine cannot honour: FirstK and
// KOrTimeout need K >= 1, Timeout and KOrTimeout need a positive
// deadline. The zero Policy is valid (it means WaitAll).
func (p Policy) Validate() error {
	switch p.Kind {
	case 0, WaitAll:
		return nil
	case FirstK:
		if p.K < 1 {
			return fmt.Errorf("waitornot: first-k policy needs K >= 1, got %d", p.K)
		}
	case Timeout:
		if p.TimeoutMs <= 0 {
			return fmt.Errorf("waitornot: timeout policy needs TimeoutMs > 0, got %g", p.TimeoutMs)
		}
	case KOrTimeout:
		if p.K < 1 {
			return fmt.Errorf("waitornot: k-or-timeout policy needs K >= 1, got %d", p.K)
		}
		if p.TimeoutMs <= 0 {
			return fmt.Errorf("waitornot: k-or-timeout policy needs TimeoutMs > 0, got %g", p.TimeoutMs)
		}
	default:
		return fmt.Errorf("waitornot: unknown policy kind %d", int(p.Kind))
	}
	return nil
}

func (p Policy) internal() core.WaitPolicy {
	switch p.Kind {
	case FirstK:
		return core.FirstK{K: p.K}
	case Timeout:
		return core.Timeout{D: time.Duration(p.TimeoutMs * float64(time.Millisecond))}
	case KOrTimeout:
		return core.KOrTimeout{K: p.K, D: time.Duration(p.TimeoutMs * float64(time.Millisecond))}
	default:
		return core.WaitAll{}
	}
}

// DistKind selects a duration-distribution family for heterogeneous
// compute and network draws.
type DistKind = simnet.DistKind

// The distribution families.
const (
	// DistFixed always draws the mean (the zero value: no jitter).
	DistFixed = simnet.DistFixed
	// DistUniform draws Mean * (1 ± Jitter), uniform.
	DistUniform = simnet.DistUniform
	// DistLogNormal draws a right-skewed value with mean Mean —
	// occasional heavy stragglers, the empirical shape of shared
	// infrastructure.
	DistLogNormal = simnet.DistLogNormal
	// DistExponential draws exponentially with mean Mean (memoryless
	// network-style delays; Jitter is ignored).
	DistExponential = simnet.DistExponential
)

// Dist describes a positive random draw — the engine's own type: Kind,
// a Mean (a multiplier for Options.ComputeDist, 1 = the calibrated
// duration; milliseconds for Options.NetworkDist) and a relative
// Jitter (DistUniform needs Jitter <= 1). Draws come from
// deterministic per-peer xrand streams, so runs stay bit-reproducible;
// Validate rejects distributions that could draw non-positive values.
type Dist = simnet.Dist

// Options parameterizes an experiment. The zero value (plus a Model)
// reproduces the paper's setup: 3 clients, 10 rounds, 5 local epochs,
// calibrated data sizes.
type Options struct {
	// Model is the architecture (default SimpleNN).
	Model Model
	// Clients is the participant count (default 3, the paper's).
	Clients int
	// Rounds is the communication-round count (default 10).
	Rounds int
	// Seed drives all randomness (default 1).
	Seed uint64
	// TrainPerClient / SelectionSize / TestPerClient size the data
	// (defaults 3000 / 300 / 800).
	TrainPerClient int
	SelectionSize  int
	TestPerClient  int
	// DirichletAlpha > 0 partitions shards non-IID.
	DirichletAlpha float64
	// PretrainSamples / PretrainEpochs override the EffNetB0Sim
	// transfer-learning warm start (0 = calibrated defaults). Ignored
	// for SimpleNN.
	PretrainSamples int
	PretrainEpochs  int
	// LearningRate overrides the calibrated local-training rate
	// (0 = paper-calibrated default). Small demos with few samples and
	// rounds want a hotter rate than the full-scale calibration.
	LearningRate float64
	// LocalEpochs overrides the per-round local epochs (0 = 5, the
	// paper's protocol).
	LocalEpochs int
	// Parallelism bounds the engine's worker pools: per-peer local
	// training, the combination searches, and the per-policy runs of
	// KindTradeoff. 0 means runtime.NumCPU(); 1 restores the exact
	// sequential schedule. Results are bit-identical at every setting
	// — the engine pre-derives every RNG stream and writes results to
	// index-addressed slots (see internal/par).
	Parallelism int

	// Policy is the decentralized wait policy (default WaitAll).
	Policy Policy
	// FilterMinAccuracy / FilterMaxBelowBest screen abnormal models
	// before aggregation (0 disables).
	FilterMinAccuracy  float64
	FilterMaxBelowBest float64
	// StragglerFactor scales each peer's simulated training duration
	// (nil = homogeneous peers).
	StragglerFactor []float64
	// SkipComboTables disables the per-round all-combination test
	// evaluation (Tables II-IV data) for faster runs.
	SkipComboTables bool
	// PoisonClient, if >= 0, label-flips PoisonFraction of that
	// client's shard. Default -1 (disabled).
	PoisonClient   int
	PoisonFraction float64
	// ClientFraction, when in (0, 1], trains only a K-of-N subsample of
	// the registered fleet each round (K = round(ClientFraction*Clients),
	// at least 1) — cross-device federated learning, which is what makes
	// fleets of thousands of registered clients feasible. Per-round
	// participant sets are drawn deterministically from Seed, only
	// sampled clients are materialized, each draws its own training
	// shard, and the per-round combination tables are disabled. 0 keeps
	// the classic cross-silo schedule (every client, every round),
	// bit-identical to runs before this knob existed. Incompatible with
	// DirichletAlpha, which partitions one global pool.
	ClientFraction float64

	// Backend names the consensus substrate the decentralized rounds
	// commit through: "pow" (the default — the paper's proof-of-work
	// chain), "poa" (round-robin authority sealing), "instant" (an
	// in-memory state machine with no block assembly), or any name
	// added with RegisterBackend. See Backends() for the registry.
	Backend string
	// CommitLatency, when set, quantizes remote-update visibility to
	// the backend's commit interval (the simnet visibility rule), so
	// wait policies face realistic block-interval delays. Off by
	// default, preserving the historical arrival model.
	CommitLatency bool
	// Validators sizes the modeled consensus committee for backends
	// with an analytic latency model ("pbft": n = 3f+1, minimum 4;
	// 0 = backend default). It is independent of Clients — the
	// committee is a latency-model parameter, not a participant count.
	Validators int

	// Shards partitions the fleet into this many contiguous shards for
	// KindSharded, each running its own aggregation loop against its
	// own ledger (0 = the engine default of 2 when the kind is
	// sharded). Every shard needs at least 2 clients.
	Shards int
	// ShardBackends assigns each shard's consensus backend: empty =
	// every shard on Backend, one entry = every shard on it, Shards
	// entries = per-shard assignment.
	ShardBackends []string
	// MergeCadence is the cross-shard merge period in shard rounds
	// (0 = 1; the final round always merges).
	MergeCadence int
	// MergeMode selects the cross-shard merge discipline (default
	// MergeSync, the barrier).
	MergeMode MergeMode
	// AdaptiveShards enables the per-shard epsilon-greedy wait-policy
	// controller: at every merge epoch each shard scores the policy it
	// just ran (accuracy gained per second of wait) and picks the next
	// epoch's policy from the experiment's ladder (Scenario.Policies /
	// WithPolicies; empty = DefaultPolicies for the smallest shard).
	AdaptiveShards bool

	// ComputeDist, when set, draws a per-peer per-round multiplier on
	// the modeled training duration (heterogeneous compute) from this
	// distribution. KindAsync only; the barriered kinds keep the fixed
	// calibrated model.
	ComputeDist Dist
	// NetworkDist, when set, draws extra per-submission propagation
	// delay in ms on top of the base latency + bandwidth model
	// (network jitter). KindAsync only.
	NetworkDist Dist
	// TimeBudgetMs caps a KindAsync run's virtual horizon: peers stop
	// opening rounds past it, and a peer still waiting there merges
	// what it has. 0 = no cap (run until every peer finishes Rounds
	// aggregations).
	TimeBudgetMs float64
	// StalenessHalfLifeMs tunes the asynchronous merge: an update's
	// weight halves per this many ms of age. 0 derives it from the
	// fleet's mean modeled training duration.
	StalenessHalfLifeMs float64
}

// Validate rejects options a run cannot honour. The public layer checks
// only the fields whose public form differs from the engine's — the
// sign of the counts (0 means "the default" at this layer), the poison
// range, the wait policy and the model — and leaves everything else to
// the Validate of the engine configuration the options lower to, which
// Run reaches anyway: a rule is written once, at the layer that
// enforces it. Exported for callers that want to fail fast.
func (o Options) Validate() error {
	if o.Clients < 0 {
		return fmt.Errorf("waitornot: negative client count %d", o.Clients)
	}
	if o.Rounds < 0 {
		return fmt.Errorf("waitornot: negative round count %d", o.Rounds)
	}
	if o.Shards < 0 {
		return fmt.Errorf("waitornot: negative shard count %d", o.Shards)
	}
	if o.PoisonFraction < 0 || o.PoisonFraction > 1 {
		return fmt.Errorf("waitornot: poison fraction %g outside [0, 1]", o.PoisonFraction)
	}
	if err := o.Policy.Validate(); err != nil {
		return err
	}
	if m := o.withDefaults().Model; m != SimpleNN && m != EffNetB0Sim {
		return fmt.Errorf("waitornot: unknown model %v", m)
	}
	if o.Shards > 0 {
		return o.sharded(nil).Validate()
	}
	return o.decentralized().Validate()
}

// withDefaults fills only what the public layer must decide itself.
// Counts stay as the caller set them — the engines read 0 as their
// default, and this struct is hashed into campaign fingerprints — so
// code that needs the effective count asks clients / shards /
// mergeCadence below.
func (o Options) withDefaults() Options {
	if o.Model == 0 {
		o.Model = SimpleNN
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PoisonClient == 0 && o.PoisonFraction == 0 {
		o.PoisonClient = -1
	}
	return o
}

// clients, shards and mergeCadence are the effective counts: the
// caller's, or the engine default a zero stands for.
func (o Options) clients() int      { return cmp.Or(o.Clients, bfl.DefaultPeers) }
func (o Options) shards() int       { return cmp.Or(o.Shards, shard.DefaultShards) }
func (o Options) mergeCadence() int { return cmp.Or(o.MergeCadence, shard.DefaultMergeEvery) }

func (o Options) hyper() fl.Hyper {
	if o.LearningRate == 0 && o.LocalEpochs == 0 {
		return fl.Hyper{} // engine default for the model
	}
	h := fl.DefaultHyper(o.Model)
	if o.LearningRate > 0 {
		h.LR = o.LearningRate
	}
	if o.LocalEpochs > 0 {
		h.LocalEpochs = o.LocalEpochs
	}
	return h
}

func (o Options) pretrain() fl.PretrainSpec {
	if o.PretrainSamples == 0 && o.PretrainEpochs == 0 {
		return fl.PretrainSpec{} // engine default
	}
	spec := fl.DefaultPretrain()
	if o.PretrainSamples > 0 {
		spec.Samples = o.PretrainSamples
	}
	if o.PretrainEpochs > 0 {
		spec.Epochs = o.PretrainEpochs
	}
	return spec
}

func (o Options) vanilla() fl.VanillaConfig {
	o = o.withDefaults()
	return fl.VanillaConfig{
		Model:          o.Model,
		Clients:        o.Clients,
		Rounds:         o.Rounds,
		Seed:           o.Seed,
		TrainPerClient: o.TrainPerClient,
		SelectionSize:  o.SelectionSize,
		TestPerClient:  o.TestPerClient,
		DirichletAlpha: o.DirichletAlpha,
		Pretrain:       o.pretrain(),
		Hyper:          o.hyper(),
		Parallelism:    o.Parallelism,
	}
}

func (o Options) decentralized() bfl.Config {
	o = o.withDefaults()
	return bfl.Config{
		Model:           o.Model,
		Peers:           o.Clients,
		Rounds:          o.Rounds,
		Seed:            o.Seed,
		TrainPerPeer:    o.TrainPerClient,
		SelectionSize:   o.SelectionSize,
		TestPerPeer:     o.TestPerClient,
		DirichletAlpha:  o.DirichletAlpha,
		Pretrain:        o.pretrain(),
		Hyper:           o.hyper(),
		Policy:          o.Policy.internal(),
		Filter:          core.Filter{MinAccuracy: o.FilterMinAccuracy, MaxBelowBest: o.FilterMaxBelowBest},
		EvalAllCombos:   !o.SkipComboTables,
		StragglerFactor: o.StragglerFactor,
		PoisonPeer:      o.PoisonClient,
		PoisonFrac:      o.PoisonFraction,
		ClientFraction:  o.ClientFraction,
		Parallelism:     o.Parallelism,
		Backend:         o.Backend,
		CommitLatency:   o.CommitLatency,
		Validators:      o.Validators,

		Compute:             o.ComputeDist,
		Network:             o.NetworkDist,
		TimeBudgetMs:        o.TimeBudgetMs,
		StalenessHalfLifeMs: o.StalenessHalfLifeMs,
	}
}
