package waitornot

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Scenario is a complete run description: a Kind, its Options, and the
// ladders and sweep axes the kind spans. Every knob is a field; a named
// Scenario can be registered, which turns the evaluation grids of the
// paper and of related systems (sync vs async ladders, stragglers,
// poisoning, non-IID splits) into one-liners. To run a variation, take
// the copy LookupScenario returns, set fields, and build the
// experiment from it:
//
//	sc, _ := waitornot.LookupScenario("async-ladder")
//	sc.Options.Rounds = 3
//	res, err := sc.Experiment(waitornot.WithParallelism(4)).Run(ctx)
//
// or, from the CLI, `go run ./cmd/repro -scenario async-ladder -rounds 3`.
// As on Options, a field tagged `kinds:"..."` is an error on other kinds.
type Scenario struct {
	// Name is the registry key (unique, non-empty when registered). It
	// labels Results and SweepReports and is part of a campaign's
	// identity.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Kind selects the experiment family.
	Kind Kind
	// Options is the base configuration.
	Options Options
	// Policies is the wait-policy ladder: what a KindTradeoff or
	// KindAsync experiment sweeps and what the KindSharded adaptive
	// controller picks from (an error without AdaptiveShards). Empty
	// means DefaultPolicies for the client count (KindSharded: the
	// smallest shard). A KindDecentralized RunSweep sweeps it too
	// (empty: the one Options.Policy), which its Run runs alone.
	Policies []Policy `kinds:"decentralized tradeoff async sharded"`
	// Backends is the consensus-backend ladder (empty means the single
	// Options.Backend). With both ladders set the sweep is backends ×
	// policies, one frontier per substrate. As with Policies, a
	// KindDecentralized Run stays the single run at Options.Backend.
	Backends []string `kinds:"decentralized tradeoff async sharded"`
	// Seeds, when set, declares the scenario as a replicated sweep:
	// RunSweep replays every policy × backend cell once per seed and
	// reports mean ± 95% CI per cell. Run ignores it (a scenario stays
	// runnable as a single-seed experiment at Options.Seed).
	Seeds []uint64 `kinds:"decentralized tradeoff async sharded"`
	// ShardCounts / MergeCadences are the KindSharded sweep axes:
	// RunSweep spans backend × shard count × merge cadence, each cell
	// labeled "S=<shards>/M=<cadence>" in the policy column. Empty
	// collapses an axis to the single configured Options.Shards /
	// Options.MergeCadence. Ignored by Run.
	ShardCounts   []int `kinds:"sharded"`
	MergeCadences []int `kinds:"sharded"`
}

// Experiment builds the Experiment that runs this scenario, plus
// overrides. The experiment holds the scenario by value; its slices
// are shared with the caller, not copied.
func (s Scenario) Experiment(overrides ...Option) *Experiment {
	e := &Experiment{sc: s}
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
// or duplicate names and any description Run or RunSweep would refuse
// — it resolves the scenario exactly as they do (over the scenario's
// own seed when it declares none) — so every registered scenario is
// runnable.
func RegisterScenario(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("waitornot: scenario needs a name")
	}
	e := s.Experiment()
	e.replications = 1 // a scenario that declares no seeds resolves over its own
	err := e.check()
	if err == nil && s.Kind != KindVanilla { // vanilla is never a sweep
		_, err = e.sweepPlan()
	}
	if err != nil {
		return fmt.Errorf("waitornot: scenario %q: %w", s.Name, err)
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
			Policy:          Policy{K: 2},
			StragglerFactor: []float64{1, 1, 3},
			CommitLatency:   true,
			SkipComboTables: true,
		},
	})
	MustRegisterScenario(Scenario{
		Name: "hetero-compute",
		Description: "heterogeneous fleet, async: lognormal compute stragglers and uniform " +
			"network jitter drawn per round on the virtual clock (at -fast the jitter lands " +
			"inside pow's 1 s commit interval and changes no aggregation)",
		Kind: KindAsync,
		Options: Options{
			Policy:          Policy{K: 2, Deadline: 1500 * time.Millisecond},
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
		Name: "async-ladder",
		Description: "full wait-policy ladder under a 3x straggler: wait-all, first-k, timeout, k-or-timeout " +
			"(the 60 ms deadline fires at the default data size, not at -fast; first-2-or-60ms " +
			"reads as first-2 at both)",
		Kind:    KindTradeoff,
		Options: Options{StragglerFactor: []float64{1, 1, 3}},
		Policies: append(DefaultPolicies(3),
			Policy{Deadline: 60 * time.Millisecond},
			Policy{K: 2, Deadline: 60 * time.Millisecond},
		),
	})
}
