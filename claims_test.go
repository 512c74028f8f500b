package waitornot

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"waitornot/internal/bfl"
	"waitornot/internal/stats"
)

// A claim is what one registered scenario's description says it
// shows, and the check that holds it at the sizes, rounds and seeds
// the check names. Accuracies at these sizes sit well under the
// paper's, so a claim about accuracy is asserted only where every
// seed shows it; where the seeds disagree the row says so and asserts
// no direction.
type claim struct {
	kind  Kind
	claim string
	check func(t *testing.T, sc Scenario)
}

// TestClaims has one row per registered scenario, and a scenario
// registered without a row fails it. Each row also checks the
// scenario's kind and that its options and ladder validate.
func TestClaims(t *testing.T) {
	claims := map[string]claim{
		"paper-repro": {KindDecentralized,
			"Tables II-IV: every round each peer scores the 5 combinations its table lists, adopts one of them, " +
				"and reports that row's test accuracy (probe scale, 2 rounds, seeds 1-3, SimpleNN); and the " +
				"complex model involves more training models in the aggregation: the mean adopted combination " +
				"size is larger for EffNetB0Sim than for SimpleNN on every seed (-fast scale, 2 rounds, " +
				"seeds 1-3, the three EffNetB0Sim worlds built from one backbone; the seeds read 2.333, 2.167, " +
				"2.167 against 1.833 each. The per-seed direction is this backbone's: five other backbone " +
				"draws each read a larger 3-seed mean, 1.889-2.111, and four of them tied or reversed on one " +
				"or two seeds)",
			func(t *testing.T, sc Scenario) {
				adopted(t, sc)
				probeScale(&sc, 2)
				for seed := uint64(1); seed <= 3; seed++ {
					d := runClaim(t, sc, WithSeed(seed)).Decentralized
					for p, labels := range d.ComboLabels {
						if len(labels) != 5 {
							t.Fatalf("seed %d: peer %s's table has %d rows, want 5", seed, d.PeerNames[p], len(labels))
						}
						for r, rs := range d.Rounds[p] {
							i := slices.Index(labels, rs.ChosenCombo)
							if i < 0 || rs.Included != 3 || rs.ChosenAccuracy != d.ComboAccuracy[p][r][i] {
								t.Fatalf("seed %d peer %s round %d: adopted %q (%d included) at %v, table %v = %v",
									seed, d.PeerNames[p], r+1, rs.ChosenCombo, rs.Included, rs.ChosenAccuracy, labels, d.ComboAccuracy[p][r])
							}
						}
					}
				}
			}},
		"vanilla-baseline": {KindVanilla,
			"decentralized accuracy is comparable to centralized: paper-repro's fleet-mean final accuracy " +
				"minus the vanilla \"consider\" arm's has a 95% interval that covers 0 " +
				"(probe scale, 3 rounds, seeds 1-3; the seeds read +0.004, -0.015, +0.050)",
			func(t *testing.T, sc Scenario) {
				probeScale(&sc, 3)
				dec, _ := LookupScenario("paper-repro")
				probeScale(&dec, 3)
				dec.Options.SkipComboTables = true
				var diff stats.Welford
				for seed := uint64(1); seed <= 3; seed++ {
					v := runClaim(t, sc, WithSeed(seed)).Vanilla
					d := runClaim(t, dec, WithSeed(seed)).Decentralized
					if len(v.ConsiderCombos) != 3 || len(v.Consider) != 3 || len(v.NotConsider) != 3 {
						t.Fatalf("seed %d: report shape %+v", seed, v)
					}
					var gap float64
					for c := range v.Consider {
						gap += (d.Rounds[c][2].ChosenAccuracy - v.Consider[c][2]) / 3
					}
					diff.Add(gap)
				}
				if s := diff.Summary(); s.Mean-s.CI95 > 0 || s.Mean+s.CI95 < 0 {
					t.Fatalf("decentralized minus centralized = %v, which excludes 0", s)
				}
			}},
		"non-iid": {KindDecentralized,
			"under the Dirichlet(0.5) partition every peer still gains from the others: in every round the " +
				"fleet-mean accuracy of the three-model FedAvg beats the mean solo model, and the partition " +
				"changes the run (probe scale, 2 rounds, seeds 1-3)",
			func(t *testing.T, sc Scenario) {
				probeScale(&sc, 2)
				for seed := uint64(1); seed <= 3; seed++ {
					res := runClaim(t, sc, WithSeed(seed))
					if res.Scenario != "non-iid" || res.Kind != KindDecentralized {
						t.Fatalf("results labelled %q, %v", res.Scenario, res.Kind)
					}
					d := res.Decentralized
					for r := range d.Rounds[0] {
						var solo, all float64
						for p := range d.Rounds {
							row := d.ComboAccuracy[p][r]
							solo, all = solo+row[0], all+row[len(row)-1]
							if d.Rounds[p][r].Included != 3 {
								t.Fatalf("seed %d peer %d round %d: wait-all included %d of 3", seed, p, r+1, d.Rounds[p][r].Included)
							}
						}
						if all <= solo {
							t.Fatalf("seed %d round %d: FedAvg of all %.4f, mean solo %.4f", seed, r+1, all/3, solo/3)
						}
					}
				}
				iid, noniid := sc, sc
				iid.Options.DirichletAlpha = 0
				iid.Options.SkipComboTables, noniid.Options.SkipComboTables = true, true
				if reflect.DeepEqual(runClaim(t, iid).Decentralized.Rounds, runClaim(t, noniid).Decentralized.Rounds) {
					t.Fatal("the Dirichlet partition ran exactly like the IID one")
				}
			}},
		"poisoning": {KindDecentralized,
			"the abnormal-model filter screens out the label-flipped peer: from round 2 on, A and B reject C " +
				"and adopt a combination without it (probe scale, 3 rounds, seeds 1-3)",
			func(t *testing.T, sc Scenario) {
				probeScale(&sc, 3)
				sc.Options.SkipComboTables = true
				for seed := uint64(1); seed <= 3; seed++ {
					d := runClaim(t, sc, WithSeed(seed)).Decentralized
					for p := range 2 {
						for _, rs := range d.Rounds[p][1:] {
							if !slices.Contains(rs.Rejected, "C") || slices.Contains(strings.Split(rs.ChosenCombo, ","), "C") {
								t.Fatalf("seed %d peer %s round %d: rejected %v, adopted %q", seed, d.PeerNames[p], rs.Round, rs.Rejected, rs.ChosenCombo)
							}
						}
					}
				}
			}},
		"stragglers": {KindTradeoff,
			"waiting for fewer models cuts the wait: on every seed wait-all > first-2 > first-1, including 3, 2 " +
				"and 1 models; no accuracy direction (the seeds' intervals overlap at this scale) " +
				"(probe scale, 2 rounds, seeds 1-3)",
			func(t *testing.T, sc Scenario) {
				probeScale(&sc, 2)
				rep := sweepClaim(t, sc, WithSeeds(1, 2, 3))
				for i, c := range rep.Cells {
					if want := float64(3 - i); c.Included.Mean != want || c.Included.CI95 != 0 {
						t.Fatalf("%s included %v, want %v", c.Policy, c.Included, want)
					}
				}
				for i := 1; i < len(rep.Runs); i++ {
					if prev, run := rep.Runs[i-1], rep.Runs[i]; prev.Seed == run.Seed && run.MeanWaitMs >= prev.MeanWaitMs {
						t.Fatalf("seed %d: %s waits %.2f ms, %s %.2f ms", run.Seed, run.Policy, run.MeanWaitMs, prev.Policy, prev.MeanWaitMs)
					}
				}
			}},
		"consensus-ladder": {KindTradeoff,
			"the backend moves the wait, not the model: under wait-all the wait orders pow > poa > pbft > instant, " +
				"and each policy's final accuracy is the same on all four backends " +
				"(-fast, 2 rounds, seeds 1-3; accuracies there sit at chance)",
			func(t *testing.T, sc Scenario) {
				sc.Options.Rounds = 2
				rep := sweepClaim(t, sc, WithSeeds(1, 2, 3), WithFastScale())
				acc := map[[2]any]float64{}
				for _, run := range rep.Runs {
					key := [2]any{run.Seed, run.Policy}
					if a, ok := acc[key]; ok && a != run.FinalAccuracy {
						t.Fatalf("seed %d %s: %s reads %v, pow %v", run.Seed, run.Policy, run.Backend, run.FinalAccuracy, a)
					}
					acc[key] = run.FinalAccuracy
				}
				var backends []string
				var waits []float64
				for _, c := range rep.Cells {
					if c.Policy == "wait-all" {
						backends, waits = append(backends, c.Backend), append(waits, c.WaitMs.Mean)
					}
				}
				for i := 1; i < len(waits); i++ {
					if waits[i] >= waits[i-1] {
						t.Fatalf("wait-all waits over %v = %v, want strictly falling", backends, waits)
					}
				}
				if !slices.Equal(backends, []string{"pow", "poa", "pbft", "instant"}) {
					t.Fatalf("backends %v", backends)
				}
			}},
		"async-ladder": {KindTradeoff,
			"every rung that stops early waits less and includes fewer models than wait-all, both deadline rungs " +
				"included; the ladder spans all four policy families (default data, 1 round, seed 1)",
			func(t *testing.T, sc Scenario) {
				families := map[[2]bool]bool{} // (counts, has a timer)
				for _, p := range sc.Policies {
					families[[2]bool{p.K > 0, p.Deadline > 0}] = true
				}
				if len(families) != 4 {
					t.Fatalf("the ladder spans %d policy families: %+v", len(families), sc.Policies)
				}
				sc.Options.Rounds = 1
				sc.Options.SkipComboTables = true
				rep := sweepClaim(t, sc, WithSeeds(1))
				all := rep.Cells[0]
				for _, c := range rep.Cells[1:] {
					if c.WaitMs.Mean >= all.WaitMs.Mean || c.Included.Mean >= all.Included.Mean {
						t.Fatalf("%s waits %.1f ms with %.2f included; wait-all %.1f ms with %.2f",
							c.Policy, c.WaitMs.Mean, c.Included.Mean, all.WaitMs.Mean, all.Included.Mean)
					}
				}
			}},
		"async-free-run": {KindAsync,
			"no global barrier: in round 2 the 3x straggler C aggregates after A and B, every merge admits " +
				"at least first-2's two updates, and merged updates are stale (-fast, 2 rounds, seed 1)",
			func(t *testing.T, sc Scenario) {
				sc.Options.Rounds = 2
				a := runClaim(t, sc, WithFastScale()).Async
				if c := a.Rounds[2][1].FiredMs; c <= a.Rounds[0][1].FiredMs || c <= a.Rounds[1][1].FiredMs {
					t.Fatalf("round 2: C fired at %.2f ms, A at %.2f, B at %.2f", c, a.Rounds[0][1].FiredMs, a.Rounds[1][1].FiredMs)
				}
				for p, rounds := range a.Rounds {
					for _, ar := range rounds {
						if ar.Included < 2 || !(ar.MeanStalenessMs > 0) {
							t.Fatalf("peer %s round %d: %d included, mean staleness %v ms", a.PeerNames[p], ar.Round, ar.Included, ar.MeanStalenessMs)
						}
					}
				}
			}},
		"hetero-compute": {KindAsync,
			"compute is drawn per peer per round: each peer's training time differs between its rounds and " +
				"from the other peers' in a round; the network jitter falls inside pow's commit interval and " +
				"changes no aggregation (-fast, 2 rounds, seed 1)",
			func(t *testing.T, sc Scenario) {
				sc.Options.Rounds = 2
				a := runClaim(t, sc, WithFastScale()).Async
				train := func(p, r int) float64 { return a.Rounds[p][r].ReadyMs - a.Rounds[p][r].OpenMs }
				for p := range a.Rounds {
					if train(p, 0) == train(p, 1) {
						t.Fatalf("peer %s trained %.4f ms in both rounds", a.PeerNames[p], train(p, 0))
					}
					for q := range p {
						if train(p, 0) == train(q, 0) || train(p, 1) == train(q, 1) {
							t.Fatalf("peers %s and %s trained alike", a.PeerNames[q], a.PeerNames[p])
						}
					}
				}
				sc.Options.NetworkDist = Dist{}
				if still := runClaim(t, sc, WithFastScale()).Async; !reflect.DeepEqual(still.Rounds, a.Rounds) {
					t.Fatal("the network jitter changed an aggregation")
				}
			}},
		"sharded-hierarchy": {KindSharded,
			"the declared grid is 2 shard counts x 2 merge cadences x {poa, instant} over 3 seeds; the ledger " +
				"moves the hierarchy's wait, not its model: poa waits longer than instant at equal accuracy " +
				"(-fast, 2 rounds, seed 1, S=2/M=1)",
			func(t *testing.T, sc Scenario) {
				plan, err := sc.Experiment().sweepPlan()
				if err != nil || plan.cells() != 8 || len(plan.Seeds) != 3 {
					t.Fatalf("grid: %v, %+v", err, plan)
				}
				sc.Options.Rounds = 2
				sc.ShardCounts, sc.MergeCadences = []int{2}, []int{1}
				rep := sweepClaim(t, sc, WithSeeds(1), WithFastScale())
				poa, instant := rep.Cells[0], rep.Cells[1]
				if poa.Backend != "poa" || instant.Backend != "instant" ||
					poa.Accuracy.Mean != instant.Accuracy.Mean || poa.WaitMs.Mean <= instant.WaitMs.Mean {
					t.Fatalf("poa %+v, instant %+v", poa, instant)
				}
			}},
		"adaptive-shards": {KindSharded,
			"each shard re-picks its wait policy every merge epoch: it records one ladder rung per epoch and " +
				"tries more than one (-fast, 2 rounds, seed 1)",
			func(t *testing.T, sc Scenario) {
				sc.Options.Rounds = 2
				s := runClaim(t, sc, WithFastScale()).Sharded
				var ladder []string
				for _, p := range sc.Policies {
					ladder = append(ladder, p.Name())
				}
				for _, sh := range s.Shards {
					if len(sh.Policies) != 2 || sh.Policies[0] == sh.Policies[1] ||
						!slices.Contains(ladder, sh.Policies[0]) || !slices.Contains(ladder, sh.Policies[1]) {
						t.Fatalf("shard %d ran %v over 2 epochs, ladder %v", sh.Index, sh.Policies, ladder)
					}
				}
			}},
		"sharded-async-merge": {KindSharded,
			"cross-shard merges are asynchronous and periodic: each shard merges on its own arrival, once " +
				"every 2 shard rounds (-fast, 4 rounds, seed 1: 2 shards x 2 epochs)",
			func(t *testing.T, sc Scenario) {
				sc.Options.Rounds = 4
				s := runClaim(t, sc, WithFastScale()).Sharded
				merged := map[[2]int]bool{}
				for _, m := range s.Merges {
					if m.Mode != "async" || m.Shard < 0 || merged[[2]int{m.Epoch, m.Shard}] {
						t.Fatalf("merge %+v", m)
					}
					merged[[2]int{m.Epoch, m.Shard}] = true
				}
				if len(merged) != 4 {
					t.Fatalf("%d merges, want 2 shards x 2 epochs: %+v", len(merged), s.Merges)
				}
			}},
		"cross-device-fleet": {KindDecentralized,
			"each round trains a fresh draw of exactly 32 of the 10,000 registered clients, and wait-all " +
				"includes all 32 (64-sample shards, 2 rounds, seed 1)",
			func(t *testing.T, sc Scenario) {
				sc.Options.Rounds = 2
				sc.Options.TrainPerClient, sc.Options.SelectionSize, sc.Options.TestPerClient = 64, 16, 16
				d := runClaim(t, sc).Decentralized
				cohorts := make([][]string, 2)
				for p, rounds := range d.Rounds {
					for _, rs := range rounds {
						if rs.Included != 32 {
							t.Fatalf("peer %s round %d included %d", d.PeerNames[p], rs.Round, rs.Included)
						}
						cohorts[rs.Round-1] = append(cohorts[rs.Round-1], d.PeerNames[p])
					}
				}
				if len(cohorts[0]) != 32 || len(cohorts[1]) != 32 || slices.Equal(cohorts[0], cohorts[1]) {
					t.Fatalf("cohorts %v", cohorts)
				}
			}},
	}

	names := ScenarioNames()
	for name := range claims {
		if !slices.Contains(names, name) {
			t.Errorf("claim for %q, which is not registered", name)
		}
	}
	for _, name := range names {
		c, ok := claims[name]
		if !ok {
			t.Errorf("scenario %q is registered without a claim", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("claim: %s", c.claim)
				}
			})
			sc, _ := LookupScenario(name)
			if sc.Kind != c.kind || sc.Description == "" {
				t.Fatalf("kind %v, want %v; description %q", sc.Kind, c.kind, sc.Description)
			}
			if err := sc.Options.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, p := range sc.Policies {
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			c.check(t, sc)
		})
	}
}

// adopted holds paper-repro's second claim: at -fast scale, 2 rounds,
// seeds 1-3, the mean number of models in the combination a peer
// adopts (over peers and rounds) is larger for EffNetB0Sim than for
// SimpleNN on every seed. The EffNetB0Sim worlds are handed one
// backbone the way a sweep's are, so the row pays one warm start.
func adopted(t *testing.T, sc Scenario) {
	sc.Options.Rounds, sc.Options.SkipComboTables = 2, true
	backbone := sync.OnceValue(func() []float32 { return bfl.Backbone(0) })
	size := func(model Model, seed uint64) float64 {
		o := sc.Experiment(WithFastScale(), WithSeed(seed)).sc.Options
		o.Model = model
		c := o.decentralized()
		c.Backbone = backbone
		w, err := bfl.NewWorld(c)
		if err != nil {
			t.Fatal(err)
		}
		d, err := runDecentralizedExperiment(context.Background(), o, nil, w)
		if err != nil {
			t.Fatal(err)
		}
		var members, n float64
		for _, rounds := range d.Rounds {
			for _, rs := range rounds {
				members, n = members+float64(len(strings.Split(rs.ChosenCombo, ","))), n+1
			}
		}
		return members / n
	}
	var simple, eff stats.Welford
	for seed := uint64(1); seed <= 3; seed++ {
		s, e := size(SimpleNN, seed), size(EffNetB0Sim, seed)
		simple.Add(s)
		eff.Add(e)
		t.Logf("seed %d: EffNetB0Sim adopts %.3f models on average, SimpleNN %.3f", seed, e, s)
		if e <= s {
			t.Errorf("seed %d: EffNetB0Sim adopts no more models than SimpleNN", seed)
		}
	}
	t.Logf("mean adopted combination size: SimpleNN %v, EffNetB0Sim %v", simple.Summary(), eff.Summary())
}

// probeScale sizes a scenario like the benchmark's paper-sync: a fifth
// of the paper's data and a hotter learning rate, so that two rounds
// already separate a model that learns from one that does not.
func probeScale(sc *Scenario, rounds int) {
	sc.Options.TrainPerClient, sc.Options.SelectionSize, sc.Options.TestPerClient = 600, 60, 160
	sc.Options.LearningRate = 0.02
	sc.Options.Rounds = rounds
}

func runClaim(t *testing.T, sc Scenario, opts ...Option) *Results {
	t.Helper()
	res, err := sc.Experiment(opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sweepClaim(t *testing.T, sc Scenario, opts ...Option) *SweepReport {
	t.Helper()
	rep, err := sc.Experiment(opts...).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
