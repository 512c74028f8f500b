package waitornot

import (
	"context"
	"fmt"
	"strings"
)

// Kind selects which of the paper's experiments an Experiment executes.
type Kind int

// The three experiment families of the evaluation.
const (
	// KindVanilla is the centralized baseline (Table I / Figure 3).
	KindVanilla Kind = iota + 1
	// KindDecentralized is the blockchain deployment (Tables II-IV /
	// Figure 4).
	KindDecentralized
	// KindTradeoff is the headline speed-vs-precision study: the
	// decentralized experiment once per wait policy.
	KindTradeoff
	// KindAsync is the un-barriered deployment on the shared virtual
	// clock: each peer aggregates the moment its wait policy fires,
	// merging available updates with staleness-weighted averaging, and
	// the report is accuracy-vs-virtual-time rather than per-round
	// tables.
	KindAsync
	// KindSharded is the sharded multi-aggregator hierarchy: the fleet
	// is partitioned into shards, each running its own aggregation loop
	// against its own ledger backend with its own wait policy, with a
	// periodic cross-shard merge (sync barrier or async
	// staleness-weighted) producing the global model — all on one
	// shared virtual clock.
	KindSharded
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindVanilla:
		return "vanilla"
	case KindDecentralized:
		return "decentralized"
	case KindTradeoff:
		return "tradeoff"
	case KindAsync:
		return "async"
	case KindSharded:
		return "sharded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Experiment is the composable run description behind the public API:
// Options plus functional options select what to run, how to observe
// it, and which wait policies to sweep; Run(ctx) is the single entry
// point.
//
//	exp := waitornot.New(waitornot.Options{Model: waitornot.SimpleNN},
//	    waitornot.WithKind(waitornot.KindTradeoff),
//	    waitornot.WithPolicies(waitornot.DefaultPolicies(3)...),
//	    waitornot.WithObserverFunc(func(ev waitornot.Event) {
//	        fmt.Println(waitornot.EventString(ev))
//	    }))
//	res, err := exp.Run(ctx)
//
// An Experiment is a value holder, not a handle: Run may be called
// multiple times (each call is an independent deterministic run), but
// the Experiment must not be mutated concurrently with Run.
type Experiment struct {
	kind     Kind
	opts     Options
	policies []Policy // nil = DefaultPolicies for KindTradeoff
	backends []string // nil = the single Options.Backend (KindTradeoff)
	sweep    SweepOptions
	observer Observer
	scenario string
	err      error // deferred construction error, reported by Run
}

// Option configures an Experiment. Options are applied in order;
// later options override earlier ones (and WithScenario replaces
// kind, options, and policies wholesale, so pass it first).
type Option func(*Experiment)

// New builds an Experiment from base Options (KindDecentralized
// unless overridden) and functional options.
func New(opts Options, os ...Option) *Experiment {
	e := &Experiment{kind: KindDecentralized, opts: opts}
	for _, o := range os {
		o(e)
	}
	return e
}

// WithKind selects the experiment family.
func WithKind(k Kind) Option {
	return func(e *Experiment) { e.kind = k }
}

// WithShards switches the experiment to the sharded hierarchy
// (KindSharded) with n shards: the fleet is partitioned contiguously,
// each shard aggregates independently on its own ledger, and a
// cross-shard merge stage produces the global model. Every shard needs
// at least 2 clients.
func WithShards(n int) Option {
	return func(e *Experiment) {
		e.kind = KindSharded
		e.opts.Shards = n
	}
}

// WithShardBackends assigns each shard's consensus backend: one name
// for all shards, or exactly one per shard (see Options.ShardBackends).
func WithShardBackends(names ...string) Option {
	return func(e *Experiment) {
		e.opts.ShardBackends = make([]string, len(names))
		copy(e.opts.ShardBackends, names)
	}
}

// WithMergeCadence sets how many shard rounds pass between cross-shard
// merges (default 1; the final round always merges).
func WithMergeCadence(rounds int) Option {
	return func(e *Experiment) { e.opts.MergeCadence = rounds }
}

// WithMergeMode selects the cross-shard merge discipline: MergeSync
// (barrier) or MergeAsync (staleness-weighted, on arrival).
func WithMergeMode(m MergeMode) Option {
	return func(e *Experiment) { e.opts.MergeMode = m }
}

// WithAdaptiveShards enables the per-shard epsilon-greedy wait-policy
// controller: at every merge epoch each shard scores the policy it
// just ran (accuracy gained per second of wait) and picks the next
// epoch's policy from the experiment's ladder (WithPolicies, or
// DefaultPolicies for the smallest shard when none is set).
func WithAdaptiveShards() Option {
	return func(e *Experiment) { e.opts.AdaptiveShards = true }
}

// WithTimeBudget caps a KindAsync run's virtual horizon in ms (see
// Options.TimeBudgetMs).
func WithTimeBudget(ms float64) Option {
	return func(e *Experiment) { e.opts.TimeBudgetMs = ms }
}

// WithComputeDistribution draws heterogeneous per-peer per-round
// training-duration multipliers from d (KindAsync; see
// Options.ComputeDist).
func WithComputeDistribution(d Dist) Option {
	return func(e *Experiment) { e.opts.ComputeDist = d }
}

// WithNetworkDistribution draws extra per-submission network delay in
// ms from d (KindAsync; see Options.NetworkDist).
func WithNetworkDistribution(d Dist) Option {
	return func(e *Experiment) { e.opts.NetworkDist = d }
}

// WithObserver attaches an observer to the run's event stream.
func WithObserver(o Observer) Option {
	return func(e *Experiment) { e.observer = o }
}

// WithObserverFunc is WithObserver for a bare function.
func WithObserverFunc(fn func(Event)) Option {
	return WithObserver(ObserverFunc(fn))
}

// WithPolicies sets the wait-policy ladder a KindTradeoff experiment
// sweeps (ignored by the other kinds). Calling it — even with zero
// policies — replaces the default ladder.
func WithPolicies(ps ...Policy) Option {
	return func(e *Experiment) {
		e.policies = make([]Policy, len(ps))
		copy(e.policies, ps)
	}
}

// WithBackend selects the consensus substrate the decentralized
// rounds commit through ("pow", "poa", "instant", or any name added
// with RegisterBackend). Unknown names are reported by Run.
func WithBackend(name string) Option {
	return func(e *Experiment) { e.opts.Backend = name }
}

// WithValidators sizes the modeled consensus committee for backends
// with an analytic latency model ("pbft": n = 3f+1, minimum 4;
// 0 = backend default). See Options.Validators.
func WithValidators(n int) Option {
	return func(e *Experiment) { e.opts.Validators = n }
}

// WithBackends sets the consensus-backend ladder a KindTradeoff
// experiment sweeps: the policy ladder runs once per backend, and
// each outcome is labeled with its backend. Ignored by the other
// kinds. Calling it with zero backends restores the single
// Options.Backend sweep.
func WithBackends(names ...string) Option {
	return func(e *Experiment) {
		e.backends = make([]string, len(names))
		copy(e.backends, names)
	}
}

// WithSeeds sets the seed list a RunSweep call replicates over, one
// independent deterministic run per seed (per policy × backend cell).
// Ignored by Run, which stays a single-seed entry point. Calling it
// with zero seeds restores the WithReplications / scenario default.
func WithSeeds(seeds ...uint64) Option {
	return func(e *Experiment) {
		e.sweep.Seeds = make([]uint64, len(seeds))
		copy(e.sweep.Seeds, seeds)
	}
}

// WithReplications sets how many replications RunSweep runs when no
// explicit seed list is given: n consecutive seeds starting at
// Options.Seed. Ignored when WithSeeds (or a scenario's Seeds) names
// the list outright.
func WithReplications(n int) Option {
	return func(e *Experiment) { e.sweep.Replications = n }
}

// WithShardCounts sets the shard-count axis a KindSharded RunSweep
// spans: each count becomes one cell per backend × merge cadence.
// Ignored by Run and the other kinds. Zero counts restore the single
// configured Options.Shards.
func WithShardCounts(counts ...int) Option {
	return func(e *Experiment) {
		e.sweep.ShardCounts = make([]int, len(counts))
		copy(e.sweep.ShardCounts, counts)
	}
}

// WithMergeCadences sets the merge-cadence axis a KindSharded RunSweep
// spans (see WithShardCounts). Zero cadences restore the single
// configured Options.MergeCadence.
func WithMergeCadences(cadences ...int) Option {
	return func(e *Experiment) {
		e.sweep.MergeCadences = make([]int, len(cadences))
		copy(e.sweep.MergeCadences, cadences)
	}
}

// WithTargetAccuracy adds time-to-target-accuracy as a sweep metric:
// every RunSweep replication also reports the virtual time at which
// its mean accuracy first reached target, summarized per cell as
// mean ± 95% CI over the replications that got there. Ignored by Run.
func WithTargetAccuracy(target float64) Option {
	return func(e *Experiment) { e.sweep.TargetAccuracy = target }
}

// WithScenario loads a registered scenario: its kind, options, and
// policy ladder replace the experiment's. Pass it first and layer
// overrides (WithSeed, WithParallelism, ...) after it. An unknown
// name is reported by Run, not here, so construction stays fluent.
func WithScenario(name string) Option {
	return func(e *Experiment) {
		s, ok := LookupScenario(name)
		if !ok {
			e.err = fmt.Errorf("waitornot: unknown scenario %q (registered: %s)",
				name, strings.Join(ScenarioNames(), ", "))
			return
		}
		e.applyScenario(s)
	}
}

func (e *Experiment) applyScenario(s Scenario) {
	e.scenario = s.Name
	e.kind = s.Kind
	e.opts = s.Options
	// A scenario without a ladder leaves policies nil, which the
	// sweeps and the adaptive controller read as "the default ladder".
	e.policies = append([]Policy(nil), s.Policies...)
	e.backends = nil
	if len(s.Backends) > 0 {
		e.backends = make([]string, len(s.Backends))
		copy(e.backends, s.Backends)
	}
	e.sweep = SweepOptions{}
	if len(s.Seeds) > 0 {
		e.sweep.Seeds = make([]uint64, len(s.Seeds))
		copy(e.sweep.Seeds, s.Seeds)
	}
	if len(s.ShardCounts) > 0 {
		e.sweep.ShardCounts = append([]int(nil), s.ShardCounts...)
	}
	if len(s.MergeCadences) > 0 {
		e.sweep.MergeCadences = append([]int(nil), s.MergeCadences...)
	}
}

// WithModel overrides the architecture.
func WithModel(m Model) Option {
	return func(e *Experiment) { e.opts.Model = m }
}

// WithSeed overrides the experiment seed.
func WithSeed(seed uint64) Option {
	return func(e *Experiment) { e.opts.Seed = seed }
}

// WithRounds overrides the communication-round count.
func WithRounds(n int) Option {
	return func(e *Experiment) { e.opts.Rounds = n }
}

// WithParallelism overrides the engine's worker-pool bound
// (0 = all cores, 1 = the exact sequential schedule; results are
// bit-identical at every setting).
func WithParallelism(n int) Option {
	return func(e *Experiment) { e.opts.Parallelism = n }
}

// WithClientFraction enables cross-device client subsampling: only
// K = round(f*Clients) clients (at least 1) train each round, drawn
// deterministically from the seed; only sampled clients are
// materialized, so fleets of thousands of registered clients run in
// seconds. f must be in (0, 1] — passing f <= 0 is recorded as an
// invalid sentinel so Run reports the error instead of silently
// disabling subsampling. See Options.ClientFraction.
func WithClientFraction(f float64) Option {
	return func(e *Experiment) {
		if f <= 0 {
			f = -1
		}
		e.opts.ClientFraction = f
	}
}

// WithFastScale shrinks the data sizes to the smoke-test scale of
// `cmd/repro -fast`: runs finish in seconds instead of minutes, at
// reduced statistical fidelity.
func WithFastScale() Option {
	return func(e *Experiment) {
		e.opts.TrainPerClient = 200
		e.opts.SelectionSize = 80
		e.opts.TestPerClient = 100
	}
}

// Results is an Experiment run's output: exactly one report field is
// populated, matching Kind.
type Results struct {
	// Kind is the experiment family that ran.
	Kind Kind
	// Scenario names the registered scenario, if one was used.
	Scenario string
	// Vanilla is set for KindVanilla.
	Vanilla *VanillaReport
	// Decentralized is set for KindDecentralized.
	Decentralized *DecentralizedReport
	// Tradeoff is set for KindTradeoff.
	Tradeoff *TradeoffReport
	// Async is set for KindAsync.
	Async *AsyncReport
	// Sharded is set for KindSharded.
	Sharded *ShardedReport
}

// Run executes the experiment. The context cancels cooperatively: the
// engines check it between rounds and between worker-pool items, so a
// cancelled run returns ctx.Err() within one round boundary, with no
// partial report. Results are a pure function of the Experiment's
// configuration — bit-identical with or without an observer attached,
// at any Parallelism.
func (e *Experiment) Run(ctx context.Context) (*Results, error) {
	if e.err != nil {
		return nil, e.err
	}
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sink := observerSink(e.observer)
	res := &Results{Kind: e.kind, Scenario: e.scenario}
	switch e.kind {
	case KindVanilla:
		rep, err := runVanillaExperiment(ctx, e.opts, sink)
		if err != nil {
			return nil, err
		}
		res.Vanilla = rep
	case KindDecentralized:
		rep, err := runDecentralizedExperiment(ctx, e.opts, sink)
		if err != nil {
			return nil, err
		}
		res.Decentralized = rep
	case KindTradeoff:
		rep, err := e.runTradeoff(ctx)
		if err != nil {
			return nil, err
		}
		res.Tradeoff = rep
	case KindAsync:
		rep, err := runAsyncExperiment(ctx, e.opts, sink)
		if err != nil {
			return nil, err
		}
		res.Async = rep
	case KindSharded:
		rep, err := runShardedExperiment(ctx, e.opts, e.policies, sink)
		if err != nil {
			return nil, err
		}
		res.Sharded = rep
	default:
		return nil, fmt.Errorf("waitornot: unknown experiment kind %v", e.kind)
	}
	return res, nil
}
