package waitornot

import (
	"context"
	"fmt"
	"slices"
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

// Experiment is a run description ready to execute: the Scenario it
// runs — kind, Options, ladders and sweep axes, set as fields — plus
// the few things a scenario cannot carry (an observer, a replication
// count, a target accuracy). Run(ctx) is the single entry point;
// RunSweep / RunCampaign replicate it over seeds.
//
//	opts := waitornot.Options{Model: waitornot.SimpleNN, Rounds: 3}
//	exp := waitornot.New(opts,
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
	// sc is the run description, held once: apart from the three fields
	// below, every functional option sets a field of it.
	sc       Scenario
	observer Observer
	// replications expands to consecutive seeds from Options.Seed when
	// sc.Seeds is empty (WithReplications).
	replications int
	// target adds time-to-target-accuracy as a sweep metric
	// (WithTargetAccuracy); 0 keeps the classic three-metric sweep.
	target float64
	err    error // deferred construction error, reported by Run
}

// Option adjusts an Experiment. Options are applied in order; later
// ones override earlier ones (and WithScenario replaces the whole
// description, so pass it first). An option exists only for what gets
// layered on a finished description at run time (kind, seed and seeds,
// backend and backends, parallelism, the -fast scale, an observer) or
// has no Options field to live in; every other knob is a field — set
// it on the Options, or the Scenario copy, the experiment is built
// from.
type Option func(*Experiment)

// New builds an Experiment from base Options (KindDecentralized
// unless overridden) and functional options.
func New(opts Options, os ...Option) *Experiment {
	return Scenario{Kind: KindDecentralized, Options: opts}.Experiment(os...)
}

// WithKind selects the experiment family.
func WithKind(k Kind) Option {
	return func(e *Experiment) { e.sc.Kind = k }
}

// WithObserver attaches an observer to the run's event stream.
func WithObserver(o Observer) Option {
	return func(e *Experiment) { e.observer = o }
}

// WithObserverFunc is WithObserver for a bare function.
func WithObserverFunc(fn func(Event)) Option {
	return WithObserver(ObserverFunc(fn))
}

// WithPolicies sets the wait-policy ladder (Scenario.Policies): what a
// KindTradeoff or KindAsync experiment sweeps and what the adaptive
// KindSharded controller picks from. Zero policies restore the default
// ladder.
func WithPolicies(ps ...Policy) Option {
	return func(e *Experiment) { e.sc.Policies = slices.Clone(ps) }
}

// WithBackend selects the consensus substrate the decentralized
// rounds commit through ("pow", "poa", "instant", or any name added
// with RegisterBackend). Unknown names are reported by Run.
func WithBackend(name string) Option {
	return func(e *Experiment) { e.sc.Options.Backend = name }
}

// WithBackends sets the consensus-backend ladder (Scenario.Backends):
// the policy ladder (or the sharded topology grid) runs once per
// backend, and each outcome is labeled with its backend. Zero backends
// restore the single Options.Backend.
func WithBackends(names ...string) Option {
	return func(e *Experiment) { e.sc.Backends = slices.Clone(names) }
}

// WithSeeds sets the seed list a RunSweep call replicates over
// (Scenario.Seeds), one independent deterministic run per seed per
// cell. Ignored by Run, which stays a single-seed entry point. Zero
// seeds clear the list, leaving WithReplications to name the count.
func WithSeeds(seeds ...uint64) Option {
	return func(e *Experiment) { e.sc.Seeds = slices.Clone(seeds) }
}

// WithReplications sets how many replications RunSweep runs when no
// explicit seed list is given: n consecutive seeds starting at
// Options.Seed. Ignored when WithSeeds (or a scenario's Seeds) names
// the list outright.
func WithReplications(n int) Option {
	return func(e *Experiment) { e.replications = n }
}

// WithTargetAccuracy adds time-to-target-accuracy as a sweep metric:
// every RunSweep replication also reports the virtual time at which
// its mean accuracy first reached target, summarized per cell as
// mean ± 95% CI over the replications that got there. Ignored by Run.
func WithTargetAccuracy(target float64) Option {
	return func(e *Experiment) { e.target = target }
}

// WithScenario loads a registered scenario as the experiment's whole
// description. Pass it first and layer overrides (WithSeed,
// WithParallelism, ...) after it; to change any other knob, take the
// copy LookupScenario returns, set the field, and call its Experiment
// method instead. An unknown name is reported by Run, not here, so
// construction stays fluent.
func WithScenario(name string) Option {
	return func(e *Experiment) {
		s, ok := LookupScenario(name)
		if !ok {
			e.err = fmt.Errorf("waitornot: unknown scenario %q (registered: %s)",
				name, strings.Join(ScenarioNames(), ", "))
			return
		}
		e.sc = s
	}
}

// WithSeed overrides the experiment seed.
func WithSeed(seed uint64) Option {
	return func(e *Experiment) { e.sc.Options.Seed = seed }
}

// WithParallelism overrides the engine's worker-pool bound
// (0 = all cores, 1 = the exact sequential schedule; results are
// bit-identical at every setting).
func WithParallelism(n int) Option {
	return func(e *Experiment) { e.sc.Options.Parallelism = n }
}

// WithFastScale shrinks the data sizes to the smoke-test scale of
// `cmd/repro -fast`: runs finish in seconds instead of minutes, at
// reduced statistical fidelity.
func WithFastScale() Option {
	return func(e *Experiment) {
		e.sc.Options.TrainPerClient = 200
		e.sc.Options.SelectionSize = 80
		e.sc.Options.TestPerClient = 100
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

// check is the validation every entry point starts with: the deferred
// construction error, the Options, and the policy ladder as declared.
func (e *Experiment) check() error {
	if e.err != nil {
		return e.err
	}
	for _, p := range e.sc.Policies {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return e.sc.Options.Validate()
}

// Run executes the experiment. The context cancels cooperatively: the
// engines check it between rounds and between worker-pool items, so a
// cancelled run returns ctx.Err() within one round boundary, with no
// partial report. Results are a pure function of the Experiment's
// configuration — bit-identical with or without an observer attached,
// at any Parallelism.
func (e *Experiment) Run(ctx context.Context) (*Results, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts, sink := e.sc.Options, observerSink(e.observer)
	res := &Results{Kind: e.sc.Kind, Scenario: e.sc.Name}
	var err error
	switch e.sc.Kind {
	case KindVanilla:
		res.Vanilla, err = runVanillaExperiment(ctx, opts, sink)
	case KindDecentralized:
		res.Decentralized, err = runDecentralizedExperiment(ctx, opts, sink, nil)
	case KindTradeoff:
		res.Tradeoff, err = e.runTradeoff(ctx)
	case KindAsync:
		res.Async, err = runAsyncExperiment(ctx, opts, sink, nil)
	case KindSharded:
		res.Sharded, err = runShardedExperiment(ctx, opts, e.sc.Policies, sink)
	default:
		err = fmt.Errorf("waitornot: unknown experiment kind %v", e.sc.Kind)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
