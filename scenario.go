package waitornot

import (
	"fmt"
	"sort"
	"sync"
)

// Scenario is a named, registered experiment configuration: a Kind,
// its Options, and (for KindTradeoff) the wait-policy ladder to sweep.
// The registry turns the evaluation grids of the paper and of related
// systems (sync vs async ladders, stragglers, poisoning, non-IID
// splits) into one-liners:
//
//	sc, _ := waitornot.LookupScenario("async-ladder")
//	res, err := sc.Experiment(waitornot.WithParallelism(4)).Run(ctx)
//
// or, from the CLI, `go run ./cmd/repro -scenario async-ladder`.
type Scenario struct {
	// Name is the registry key (unique, non-empty).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Kind selects the experiment family.
	Kind Kind
	// Options is the base configuration.
	Options Options
	// Policies is the wait-policy ladder (KindTradeoff only; nil
	// means DefaultPolicies for the client count).
	Policies []Policy
	// Backends is the consensus-backend ladder (KindTradeoff only;
	// nil means the single Options.Backend). With both ladders set the
	// sweep is backends × policies, one frontier per substrate.
	Backends []string
	// Seeds, when set, declares the scenario as a replicated sweep:
	// RunSweep replays every policy × backend cell once per seed and
	// reports mean ± 95% CI per cell. Run ignores it (a scenario stays
	// runnable as a single-seed experiment at Options.Seed).
	Seeds []uint64
	// ShardCounts / MergeCadences are the KindSharded sweep axes (see
	// WithShardCounts / WithMergeCadences): RunSweep spans backend ×
	// shard count × merge cadence. Nil collapses each axis to the
	// scenario's single configured value. Ignored by the other kinds.
	ShardCounts   []int
	MergeCadences []int
}

// Experiment builds an Experiment from the scenario plus overrides
// (applied after the scenario, so they win).
func (s Scenario) Experiment(overrides ...Option) *Experiment {
	e := New(s.Options)
	e.applyScenario(s)
	for _, o := range overrides {
		o(e)
	}
	return e
}

var (
	scenarioMu sync.RWMutex
	scenarios  = map[string]Scenario{}
)

// RegisterScenario adds a scenario to the registry. It rejects empty
// or duplicate names and configurations that fail validation, so
// every registered scenario is runnable.
func RegisterScenario(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("waitornot: scenario needs a name")
	}
	switch s.Kind {
	case KindVanilla, KindDecentralized, KindTradeoff, KindAsync, KindSharded:
	default:
		return fmt.Errorf("waitornot: scenario %q: unknown kind %v", s.Name, s.Kind)
	}
	if err := s.Options.Validate(); err != nil {
		return fmt.Errorf("waitornot: scenario %q: %w", s.Name, err)
	}
	for _, p := range s.Policies {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("waitornot: scenario %q: %w", s.Name, err)
		}
	}
	for _, b := range s.Backends {
		probe := s.Options
		probe.Backend = b
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("waitornot: scenario %q: %w", s.Name, err)
		}
	}
	for _, n := range s.ShardCounts {
		probe := s.Options
		probe.Shards = n
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("waitornot: scenario %q: %w", s.Name, err)
		}
	}
	for _, m := range s.MergeCadences {
		if m < 1 {
			return fmt.Errorf("waitornot: scenario %q: merge cadence %d < 1", s.Name, m)
		}
	}
	seen := map[uint64]bool{}
	for _, seed := range s.Seeds {
		if seen[seed] {
			return fmt.Errorf("waitornot: scenario %q: duplicate sweep seed %d", s.Name, seed)
		}
		seen[seed] = true
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarios[s.Name]; dup {
		return fmt.Errorf("waitornot: scenario %q already registered", s.Name)
	}
	scenarios[s.Name] = s
	return nil
}

// MustRegisterScenario is RegisterScenario, panicking on error — for
// package init blocks.
func MustRegisterScenario(s Scenario) {
	if err := RegisterScenario(s); err != nil {
		panic(err)
	}
}

// LookupScenario returns the named scenario.
func LookupScenario(name string) (Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	s, ok := scenarios[name]
	return s, ok
}

// ScenarioNames lists registered scenario names, sorted.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Scenarios lists registered scenarios, sorted by name.
func Scenarios() []Scenario {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	out := make([]Scenario, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// The built-in scenario library. Zero-valued Options fields take the
// paper-calibrated defaults (3 clients, 10 rounds, SimpleNN,
// 3000/300/800 data sizes), so `paper-repro` IS the paper's setup and
// the others are one-knob departures from it.
func init() {
	MustRegisterScenario(Scenario{
		Name:        "paper-repro",
		Description: "the paper's blockchain deployment: 3 peers, wait-all, Tables II-IV / Figure 4",
		Kind:        KindDecentralized,
	})
	MustRegisterScenario(Scenario{
		Name:        "vanilla-baseline",
		Description: "the centralized baseline: consider vs not-consider aggregation, Table I / Figure 3",
		Kind:        KindVanilla,
	})
	MustRegisterScenario(Scenario{
		Name:        "non-iid",
		Description: "blockchain deployment over a Dirichlet(0.5) non-IID partition",
		Kind:        KindDecentralized,
		Options:     Options{DirichletAlpha: 0.5},
	})
	MustRegisterScenario(Scenario{
		Name:        "poisoning",
		Description: "one fully label-flipped peer vs the abnormal-model filter",
		Kind:        KindDecentralized,
		Options: Options{
			PoisonClient:       2,
			PoisonFraction:     1,
			FilterMaxBelowBest: 0.15,
		},
	})
	MustRegisterScenario(Scenario{
		Name:        "stragglers",
		Description: "speed-vs-precision sweep with a 3x straggler (the paper's headline table)",
		Kind:        KindTradeoff,
		Options:     Options{StragglerFactor: []float64{1, 1, 3}},
		Policies:    DefaultPolicies(3),
	})
	MustRegisterScenario(Scenario{
		Name: "replicated-tradeoff",
		Description: "the stragglers trade-off replicated over 5 seeds: " +
			"mean ± 95% CI per wait policy (run with -seeds/-replications to resize)",
		Kind:     KindTradeoff,
		Options:  Options{StragglerFactor: []float64{1, 1, 3}},
		Policies: DefaultPolicies(3),
		Seeds:    []uint64{1, 2, 3, 4, 5},
	})
	MustRegisterScenario(Scenario{
		Name: "campaign-grid",
		Description: "the full policy x backend grid over 5 seeds, sized for durable " +
			"campaigns: run with -campaign-dir to persist, kill, and -resume",
		Kind: KindTradeoff,
		Options: Options{
			StragglerFactor: []float64{1, 1, 3},
			CommitLatency:   true,
		},
		Policies: DefaultPolicies(3),
		Backends: []string{"pow", "poa", "pbft", "instant"},
		Seeds:    []uint64{1, 2, 3, 4, 5},
	})
	MustRegisterScenario(Scenario{
		Name: "consensus-ladder",
		Description: "backends x wait policies: pow vs poa vs pbft vs instant commit " +
			"latency under the full wait ladder with a 3x straggler",
		Kind: KindTradeoff,
		Options: Options{
			StragglerFactor: []float64{1, 1, 3},
			CommitLatency:   true,
		},
		Policies: DefaultPolicies(3),
		Backends: []string{"pow", "poa", "pbft", "instant"},
	})
	MustRegisterScenario(Scenario{
		Name: "async-free-run",
		Description: "true async aggregation on the shared virtual clock: no global barrier, " +
			"first-2 firing, staleness-weighted merging, accuracy vs virtual time",
		Kind: KindAsync,
		Options: Options{
			Policy:          Policy{Kind: FirstK, K: 2},
			StragglerFactor: []float64{1, 1, 3},
			CommitLatency:   true,
			SkipComboTables: true,
		},
	})
	MustRegisterScenario(Scenario{
		Name: "hetero-compute",
		Description: "heterogeneous fleet, async: lognormal compute stragglers and uniform " +
			"network jitter drawn per round on the virtual clock",
		Kind: KindAsync,
		Options: Options{
			Policy:          Policy{Kind: KOrTimeout, K: 2, TimeoutMs: 1500},
			ComputeDist:     Dist{Kind: DistLogNormal, Mean: 1, Jitter: 0.6},
			NetworkDist:     Dist{Kind: DistUniform, Mean: 40, Jitter: 0.75},
			CommitLatency:   true,
			SkipComboTables: true,
		},
	})
	MustRegisterScenario(Scenario{
		Name: "sharded-hierarchy",
		Description: "sharded multi-aggregator hierarchy: 8 peers across shard counts {2,4} x " +
			"merge cadences {1,2} x {poa,instant} ledgers, mean ± 95% CI over 3 seeds",
		Kind: KindSharded,
		Options: Options{
			Clients:         8,
			Shards:          2,
			CommitLatency:   true,
			SkipComboTables: true,
			StragglerFactor: []float64{1, 1, 1, 1, 1, 1, 1, 3},
		},
		Backends:      []string{"poa", "instant"},
		ShardCounts:   []int{2, 4},
		MergeCadences: []int{1, 2},
		Seeds:         []uint64{1, 2, 3},
	})
	MustRegisterScenario(Scenario{
		Name: "adaptive-shards",
		Description: "sharded hierarchy with the epsilon-greedy wait-policy controller: each shard " +
			"re-picks its policy per merge epoch, one shard carrying a 3x straggler",
		Kind: KindSharded,
		Options: Options{
			Clients:         8,
			Shards:          2,
			MergeCadence:    1,
			AdaptiveShards:  true,
			CommitLatency:   true,
			SkipComboTables: true,
			StragglerFactor: []float64{1, 1, 1, 1, 1, 1, 1, 3},
		},
		Policies: DefaultPolicies(4),
	})
	MustRegisterScenario(Scenario{
		Name: "sharded-async-merge",
		Description: "sharded hierarchy with asynchronous cross-shard merging: 8 peers, 2 shards, " +
			"staleness-weighted merge on arrival every 2 shard rounds",
		Kind: KindSharded,
		Options: Options{
			Clients:         8,
			Shards:          2,
			MergeCadence:    2,
			MergeMode:       MergeAsync,
			CommitLatency:   true,
			SkipComboTables: true,
		},
	})
	MustRegisterScenario(Scenario{
		Name: "cross-device-fleet",
		Description: "cross-device subsampling: 10,000 registered clients, 32 sampled per round " +
			"(fraction 0.0032), instant ledger",
		Kind: KindDecentralized,
		Options: Options{
			Clients:         10000,
			ClientFraction:  0.0032,
			Backend:         "instant",
			SkipComboTables: true,
		},
	})
	MustRegisterScenario(Scenario{
		Name:        "async-ladder",
		Description: "full wait-policy ladder under a 3x straggler: wait-all, first-k, timeout, k-or-timeout",
		Kind:        KindTradeoff,
		Options:     Options{StragglerFactor: []float64{1, 1, 3}},
		Policies: append(DefaultPolicies(3),
			Policy{Kind: Timeout, TimeoutMs: 60},
			Policy{Kind: KOrTimeout, K: 2, TimeoutMs: 60},
		),
	})
}
