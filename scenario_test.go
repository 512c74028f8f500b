package waitornot

import (
	"context"
	"testing"
)

// TestBuiltinScenarioLibrary pins the registry's contents: the
// scenarios the CLI documents must exist, validate, and carry the
// right experiment kind.
func TestBuiltinScenarioLibrary(t *testing.T) {
	wantKinds := map[string]Kind{
		"paper-repro":      KindDecentralized,
		"vanilla-baseline": KindVanilla,
		"non-iid":          KindDecentralized,
		"poisoning":        KindDecentralized,
		"stragglers":       KindTradeoff,
		"async-ladder":     KindTradeoff,
		"consensus-ladder": KindTradeoff,
		"async-free-run":   KindAsync,
		"hetero-compute":   KindAsync,

		"sharded-async-merge": KindSharded,
		"cross-device-fleet":  KindDecentralized,
	}
	for name, kind := range wantKinds {
		s, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered (have %v)", name, ScenarioNames())
		}
		if s.Kind != kind {
			t.Fatalf("scenario %q kind = %v, want %v", name, s.Kind, kind)
		}
		if s.Description == "" {
			t.Fatalf("scenario %q has no description", name)
		}
		if err := s.Options.Validate(); err != nil {
			t.Fatalf("scenario %q options invalid: %v", name, err)
		}
		for _, p := range s.Policies {
			if err := p.Validate(); err != nil {
				t.Fatalf("scenario %q policy invalid: %v", name, err)
			}
		}
	}
	// The async ladder must actually span the policy families.
	ladder, _ := LookupScenario("async-ladder")
	families := map[[2]bool]bool{} // (counts, has a timer)
	for _, p := range ladder.Policies {
		families[[2]bool{p.K > 0, p.Deadline > 0}] = true
	}
	if len(families) != 4 {
		t.Fatalf("async-ladder misses a policy family: %+v", ladder.Policies)
	}
}

// TestRegisterScenarioRejections: the registry refuses unnamed,
// duplicate, and invalid scenarios so every listed name is runnable.
func TestRegisterScenarioRejections(t *testing.T) {
	cases := []struct {
		why string
		s   Scenario
	}{
		{"a nameless scenario", Scenario{Kind: KindVanilla}},
		{"a duplicate name", Scenario{Name: "paper-repro", Kind: KindVanilla}},
		{"a zero kind", Scenario{Name: "x-bad-kind"}},
		{"a kind past the last", Scenario{Name: "x-bad-kind-6", Kind: KindSharded + 1}},
		{"invalid options", Scenario{Name: "x-bad-opts", Kind: KindVanilla, Options: Options{Clients: -1}}},
		{"an invalid policy ladder", Scenario{Name: "x-bad-policy", Kind: KindTradeoff, Policies: []Policy{{K: -1}}}},
		{"an invalid adaptive ladder", Scenario{Name: "x-bad-ladder", Kind: KindSharded,
			Options: Options{Clients: 4, AdaptiveShards: true}, Policies: []Policy{{Deadline: -1}}}},
		{"duplicate sweep seeds", Scenario{Name: "x-dup-seeds", Kind: KindTradeoff, Seeds: []uint64{3, 3}}},
		{"an unknown backend in the ladder", Scenario{Name: "x-bad-backend", Kind: KindTradeoff, Backends: []string{"pow", "nope"}}},
		// Refused by the engines, not by the public layer's own checks:
		// only resolving the scenario the way a run does catches these.
		{"a one-client fleet", Scenario{Name: "x-one-client", Kind: KindDecentralized, Options: Options{Clients: 1}}},
		{"a zero shard count on the sweep axis", Scenario{Name: "x-zero-shards", Kind: KindSharded,
			Options: Options{Clients: 4}, ShardCounts: []int{0}}},
		{"a shard count the fleet cannot fill", Scenario{Name: "x-thin-shards", Kind: KindSharded,
			Options: Options{Clients: 4}, ShardCounts: []int{2, 3}}},
		{"a zero merge cadence on the sweep axis", Scenario{Name: "x-zero-cadence", Kind: KindSharded,
			Options: Options{Clients: 4}, MergeCadences: []int{0}}},
	}
	for _, tc := range cases {
		if err := RegisterScenario(tc.s); err == nil {
			t.Errorf("accepted %s", tc.why)
		}
	}
}

// TestScenarioExperimentRuns drives a registered scenario end-to-end
// at test scale through Scenario.Experiment, proving the registry ->
// experiment -> report path.
func TestScenarioExperimentRuns(t *testing.T) {
	s, ok := LookupScenario("non-iid")
	if !ok {
		t.Fatal("non-iid not registered")
	}
	// s is a value copy: shrink it to test scale without touching the
	// registry.
	s.Options.Rounds = 1
	s.Options.TrainPerClient = 60
	s.Options.SelectionSize = 30
	s.Options.TestPerClient = 30
	s.Options.LearningRate = 0.01
	s.Options.SkipComboTables = true
	res, err := s.Experiment(WithSeed(11)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "non-iid" || res.Kind != KindDecentralized || res.Decentralized == nil {
		t.Fatalf("results = %+v", res)
	}
	if got := res.Decentralized.Rounds[0][0].Included; got != 3 {
		t.Fatalf("wait-all included %d of 3 models", got)
	}
}

// TestScenarioExperimentOverrides: options passed to a looked-up
// scenario's Experiment win over its registered configuration, and the
// rest of the description survives them.
func TestScenarioExperimentOverrides(t *testing.T) {
	s, ok := LookupScenario("stragglers")
	if !ok {
		t.Fatal("stragglers not registered")
	}
	e := s.Experiment(WithSeed(99), WithParallelism(2))
	if e.sc.Kind != KindTradeoff || e.sc.Name != "stragglers" {
		t.Fatalf("scenario not applied: %+v", e)
	}
	if e.sc.Options.Seed != 99 || e.sc.Options.Parallelism != 2 {
		t.Fatalf("overrides lost: %+v", e.sc.Options)
	}
	if len(e.sc.Policies) != 3 {
		t.Fatalf("policy ladder lost: %+v", e.sc.Policies)
	}
}

// TestLadderlessScenarioSweepsDefaultLadder: a scenario that declares
// no Policies sweeps DefaultPolicies (the replicated async ladder), not
// an empty grid.
func TestLadderlessScenarioSweepsDefaultLadder(t *testing.T) {
	s, ok := LookupScenario("async-free-run")
	if !ok {
		t.Fatal("async-free-run not registered")
	}
	plan, err := s.Experiment(WithReplications(2)).sweepPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Variants) != len(DefaultPolicies(3)) {
		t.Fatalf("swept %d policies, want the default ladder of %d", len(plan.Variants), len(DefaultPolicies(3)))
	}
}
