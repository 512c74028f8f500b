package main

import (
	"fmt"
	"runtime"

	"waitornot"
)

// procs pins GOMAXPROCS and every Parallelism knob, so the numbers do
// not depend on how many cores the box happens to have.
var procs = min(2, runtime.NumCPU())

// tracedPrefix names the timing wrappers registered over the four
// built-in backends (see trace.go).
const tracedPrefix = "traced-"

// A workload is one named input of the benchmark: a scenario sized so
// that one repetition (set-up + run + report) takes 2-4 s on the
// 2-core reference box and several fit in a run. An "op" is one
// peer-round everywhere: one peer's train -> submit -> aggregate cycle.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// base carries kind, options and the policy/backend ladders.
	base waitornot.Scenario
	// k is how many peers train in a round.
	k int
	// sweepSeeds > 0 runs base through RunSweep over this many
	// consecutive seeds; 0 runs it once through Run.
	sweepSeeds int
	// accFloor is the final accuracy below which a repetition counts
	// as failed: well under what the sizing reaches, well over chance.
	// Zero on the two workloads that train too little to leave chance
	// (0.10) behind: a model that broke scores 0.10 too, so no floor
	// could tell it apart there.
	accFloor float64
	// waitAll marks workloads whose every aggregation must include all
	// k models.
	waitAll bool
}

// scenario copies a registered scenario so a workload can resize it.
func scenario(name string) waitornot.Scenario {
	sc, ok := waitornot.LookupScenario(name)
	if !ok {
		panic(fmt.Sprintf("benchmark: scenario %q is not registered", name))
	}
	return sc
}

// workloads returns the four benchmark workloads. Sizes are scaled down
// uniformly from the full scenarios (fewer rounds, fewer sweep seeds)
// so that repetitions fit the driver's time cap; the per-round work of
// each layer is the full scenario's.
func workloads() []workload {
	// A third of the paper's data (3000/300/800) and a hotter learning
	// rate than its 3e-4, so that two rounds already separate a model
	// that learns (about 0.48) from one that does not (0.10).
	paper := scenario("paper-repro")
	paper.Options.TrainPerClient = 600
	paper.Options.SelectionSize = 60
	paper.Options.TestPerClient = 160
	paper.Options.LearningRate = 0.02
	paper.Options.Rounds = 2

	fleet := waitornot.Scenario{
		Name: "fleet-poa",
		Kind: waitornot.KindDecentralized,
		Options: waitornot.Options{
			Clients:        20,
			ClientFraction: 0.45,
			Rounds:         6,
			TrainPerClient: 64,
			SelectionSize:  16,
			TestPerClient:  100,
			LocalEpochs:    1,
			LearningRate:   0.3,
			Backend:        "poa",
			CommitLatency:  true,
		},
	}

	async := scenario("hetero-compute")
	async.Options.TrainPerClient = 400
	async.Options.LearningRate = 0.02
	async.Options.Rounds = 2

	ladder := scenario("consensus-ladder")
	ladder.Options.TrainPerClient = 100
	ladder.Options.SelectionSize = 120
	ladder.Options.TestPerClient = 100
	ladder.Options.LocalEpochs = 2
	ladder.Options.LearningRate = 0.03
	ladder.Options.Rounds = 2

	return []workload{
		{
			name: "paper-sync",
			why:  "the paper's 3-peer pow deployment with combo tables: local training dominates, the ledger is under 2% of a round",
			base: paper, k: 3, accFloor: 0.25, waitAll: true,
		},
		{
			name: "fleet-poa",
			why:  "20 clients, 9 sampled per round, model-size txs gossiped to 20 poa replicas: ledger, chain and contract dominate",
			base: fleet, k: 9, waitAll: true,
		},
		{
			name: "async-hetero",
			why:  "event-driven async engine on the virtual clock, one core, no barrier or pool: sync-only changes must not move it",
			base: async, k: 3, accFloor: 0.18,
		},
		{
			name: "ladder-sweep",
			why:  "12 short concurrent runs over 4 backends x 3 policies: per-run set-up, both cores busy, shared global caches",
			base: ladder, k: 3, sweepSeeds: 1,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cells is how many independent runs one repetition holds.
func (w workload) cells() int {
	if w.sweepSeeds == 0 {
		return 1
	}
	return w.sweepSeeds * len(w.base.Backends) * len(w.base.Policies)
}

// rounds is how many barriered rounds (or per-peer async rounds) one
// repetition runs, over all its cells.
func (w workload) rounds() int { return w.base.Options.Rounds * w.cells() }

// ops is the peer-round count of one repetition.
func (w workload) ops() int { return w.k * w.rounds() }

// experiment builds the repetition's experiment. All randomness comes
// from seed; traced routes every backend through its timing wrapper.
func (w workload) experiment(seed uint64, traced bool, obs waitornot.Observer) *waitornot.Experiment {
	sc := w.base
	if traced {
		if sc.Options.Backend == "" {
			sc.Options.Backend = "pow"
		}
		sc.Options.Backend = tracedPrefix + sc.Options.Backend
		sc.Backends = make([]string, len(w.base.Backends))
		for i, b := range w.base.Backends {
			sc.Backends[i] = tracedPrefix + b
		}
	}
	opts := []waitornot.Option{
		waitornot.WithSeed(seed),
		waitornot.WithParallelism(procs),
		waitornot.WithObserver(obs),
	}
	if w.sweepSeeds > 0 {
		seeds := make([]uint64, w.sweepSeeds)
		for i := range seeds {
			seeds[i] = seed + uint64(i)
		}
		opts = append(opts, waitornot.WithSeeds(seeds...))
	}
	return sc.Experiment(opts...)
}
