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
	"math"

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

// Policy selects when a peer stops waiting for other peers' models —
// the engine's own value, two numbers a block rule can state: K = 0
// waits for every participant (synchronous aggregation), K >= 1 fires
// at the first K models, the peer's own included; Deadline = 0 sets no
// timer, a positive Deadline fires with whatever has arrived once the
// round has been open that long. Both set fire at whichever comes
// first. The zero Policy waits for all; Name renders "wait-all",
// "first-K", "timeout-D" or "first-K-or-D".
type Policy = core.Policy

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
// calibrated data sizes. A field tagged `kinds:"..."` is read only by
// the kinds it names and set on any other kind is an error, never a
// knob with no effect; an untagged field is read by every kind.
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
	// LearningRate overrides the calibrated local-training rate
	// (0 = paper-calibrated default). Small demos with few samples and
	// rounds want a hotter rate than the full-scale calibration.
	LearningRate float64
	// LocalEpochs overrides the per-round local epochs (0 = 5, the
	// paper's protocol).
	LocalEpochs int
	// Parallelism bounds the engine's worker pools: per-peer local
	// training, the combination searches, and the cells of a sweep.
	// 0 means runtime.NumCPU(); 1 restores the exact
	// sequential schedule. Results are bit-identical at every setting
	// — the engine pre-derives every RNG stream and writes results to
	// index-addressed slots (see internal/par).
	Parallelism int

	// Policy is the peers' wait policy (default: wait for all); a trade-off
	// run takes its policies from Scenario.Policies.
	Policy Policy `kinds:"decentralized async sharded"`
	// FilterMaxBelowBest screens abnormal models before aggregation:
	// a shared model scoring more than this margin below the round's
	// best solo score is ignored (0 disables).
	FilterMaxBelowBest float64 `kinds:"decentralized tradeoff async sharded"`
	// StragglerFactor scales each peer's simulated training duration
	// (nil = homogeneous peers).
	StragglerFactor []float64 `kinds:"decentralized tradeoff async sharded"`
	// SkipComboTables disables the per-round all-combination test
	// evaluation (Tables II-IV data) for faster runs; met on every kind
	// (DESIGN §2).
	SkipComboTables bool
	// PoisonClient, if >= 0, label-flips PoisonFraction of that
	// client's shard, in every kind: the vanilla baseline trains on the
	// same shards as the decentralized run. Default -1 (disabled).
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
	// DirichletAlpha, which partitions one global pool; an error on
	// other kinds.
	ClientFraction float64 `kinds:"decentralized tradeoff async"`

	// Backend names the consensus substrate the decentralized rounds
	// commit through: "pow" (the default — the paper's proof-of-work
	// chain), "poa" (round-robin authority sealing), "instant" (an
	// in-memory state machine with no block assembly), or any name
	// added with RegisterBackend. See Backends() for the registry.
	Backend string `kinds:"decentralized tradeoff async sharded"`
	// CommitLatency, when set, quantizes remote-update visibility to
	// the backend's commit interval (the simnet visibility rule), so
	// wait policies face realistic block-interval delays. Off by
	// default, preserving the historical arrival model.
	CommitLatency bool `kinds:"decentralized tradeoff async sharded"`

	// Shards partitions the fleet into this many contiguous shards,
	// each running its own aggregation loop against its own ledger
	// (0 = 2; an error on other kinds). Every shard needs 2 clients.
	Shards int `kinds:"sharded"`
	// ShardBackends assigns each shard's consensus backend: empty =
	// every shard on Backend, one entry = every shard on it, Shards
	// entries = per-shard assignment.
	ShardBackends []string `kinds:"sharded"`
	// MergeCadence is the cross-shard merge period in shard rounds
	// (0 = 1; the final round always merges).
	MergeCadence int `kinds:"sharded"`
	// MergeMode selects the cross-shard merge discipline (default
	// MergeSync, the barrier).
	MergeMode MergeMode `kinds:"sharded"`
	// AdaptiveShards enables the per-shard epsilon-greedy wait-policy
	// controller: at every merge epoch each shard scores the policy it
	// just ran (accuracy gained per second of wait) and picks the next
	// epoch's policy from the experiment's ladder (Scenario.Policies /
	// WithPolicies; empty = DefaultPolicies for the smallest shard).
	AdaptiveShards bool `kinds:"sharded"`

	// ComputeDist, when set, draws a per-peer per-round multiplier on
	// the modeled training duration (heterogeneous compute) from this
	// distribution, on the barriered and the asynchronous schedule
	// alike; an error on vanilla, which has no arrival model.
	ComputeDist Dist `kinds:"decentralized tradeoff async sharded"`
	// NetworkDist, when set, draws extra per-submission propagation
	// delay in ms on top of the base latency + bandwidth model
	// (network jitter); an error on vanilla.
	NetworkDist Dist `kinds:"decentralized tradeoff async sharded"`
	// TimeBudgetMs caps the run's virtual horizon: peers stop opening
	// rounds past it, and a peer still waiting there merges what it
	// has. 0 = no cap (run until every peer finishes Rounds
	// aggregations); an error on other kinds.
	TimeBudgetMs float64 `kinds:"async"`
}

// Validate rejects options a run cannot honour. The public layer checks
// only the fields whose public form differs from the engine's — the
// sign of the counts (0 means "the default" at this layer), the poison
// range and the model — and leaves everything else
// to the Validate of the engine configuration the options lower to,
// which Run reaches anyway, and the `kinds` tags to the experiment's
// check: a rule is written once, at the layer that enforces it.
// Exported for callers that want to fail fast.
func (o Options) Validate() error {
	if o.Clients < 0 {
		return fmt.Errorf("waitornot: negative client count %d", o.Clients)
	}
	if o.Rounds < 0 {
		return fmt.Errorf("waitornot: negative round count %d", o.Rounds)
	}
	if o.LocalEpochs < 0 {
		return fmt.Errorf("waitornot: negative local epoch count %d", o.LocalEpochs)
	}
	if !(o.PoisonFraction >= 0 && o.PoisonFraction <= 1) {
		return fmt.Errorf("waitornot: poison fraction %g outside [0, 1]", o.PoisonFraction)
	}
	if !(o.LearningRate >= 0 && o.LearningRate <= math.MaxFloat64) {
		return fmt.Errorf("waitornot: learning rate %g is not finite and non-negative", o.LearningRate)
	}
	if m := o.withDefaults().Model; m != SimpleNN && m != EffNetB0Sim {
		return fmt.Errorf("waitornot: unknown model %v", m)
	}
	if o.Shards != 0 {
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
		Hyper:           o.hyper(),
		Policy:          o.Policy,
		Filter:          core.Filter{MaxBelowBest: o.FilterMaxBelowBest},
		EvalAllCombos:   !o.SkipComboTables,
		StragglerFactor: o.StragglerFactor,
		PoisonPeer:      o.PoisonClient,
		PoisonFrac:      o.PoisonFraction,
		ClientFraction:  o.ClientFraction,
		Parallelism:     o.Parallelism,
		Backend:         o.Backend,
		CommitLatency:   o.CommitLatency,

		Compute:      o.ComputeDist,
		Network:      o.NetworkDist,
		TimeBudgetMs: o.TimeBudgetMs,
	}
}
