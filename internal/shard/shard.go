// Package shard implements the sharded multi-aggregator hierarchy: the
// fleet's one bfl.World is partitioned into contiguous blocks of peers,
// each shard running its own barriered aggregation loop
// (bfl.RoundEngine) over its block against its own ledger backend with
// its own wait policy and commit cadence, and a cross-shard merge stage
// periodically folds the shard models into one global model. Every
// shard count splits the same population, so shard-count cells of one
// seed differ in topology only.
//
// # One clock, many ledgers
//
// Every shard's rounds are laid on a single vclock.Clock. Shard i's
// round r is one atomic callback at its decision-commit instant: the
// orchestrator computes the round's submission commit at the first
// block boundary strictly after the shard's previous commit
// (simnet.CommitVisibilityMs) and the decision commit one block
// interval later, then hands both instants to RunRoundAt. Shards with
// different backends tick at different cadences and interleave on the
// shared clock; callbacks are sequential and ordered by (time, shard
// index), so runs are bit-deterministic at any Parallelism and a
// single-shard hierarchy reproduces the flat runner's timeline — and
// bits — exactly.
//
// # Cross-shard merge
//
// Every MergeEvery shard rounds (and always at the final round) a
// shard publishes its sample-weighted shard model. MergeSync is a
// barrier: the merge waits for every shard's epoch model, FedAvg-folds
// them, and pushes the global model down into every shard. MergeAsync
// merges on arrival: the arriving shard folds every shard's latest
// model with staleness-discounted weights (mirroring the asynchronous
// engine's half-life decay) and only the arriver adopts the result —
// fast shards never wait for slow ones.
//
// # Adaptive wait policies
//
// With Adaptive set, each shard runs an epsilon-greedy bandit over the
// policy ladder: at every merge epoch it scores the arm it just ran
// (accuracy gain on the global evaluation set per second of policy
// wait) and picks the next epoch's wait policy — exploration draws
// come from a per-shard derived stream, so the controller is as
// deterministic as everything else.
package shard

import (
	"cmp"
	"context"
	"fmt"

	"waitornot/internal/bfl"
	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/ledger"
	"waitornot/internal/simnet"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

// MergeMode selects the cross-shard merge discipline.
type MergeMode int

const (
	// MergeSync barriers every MergeEvery rounds: all shards publish,
	// the models are FedAvg-folded, and every shard adopts the result.
	MergeSync MergeMode = iota
	// MergeAsync merges on each shard's arrival with staleness-weighted
	// averaging; only the arriving shard adopts.
	MergeAsync
)

// String names the mode as it appears in events and reports.
func (m MergeMode) String() string {
	if m == MergeAsync {
		return "async"
	}
	return "sync"
}

// Config parameterizes a sharded hierarchy run.
type Config struct {
	// Base is the fleet-level experiment configuration, and every
	// shard's: Base.Peers is the TOTAL fleet size, and each shard runs
	// a contiguous block [lo, hi) of the world Base describes (or of
	// Base.World, when set). Peer names, keys, training streams,
	// Base.StragglerFactor and Base.PoisonPeer stay indexed fleet-wide.
	Base bfl.Config
	// Shards is the number of shards (default 2). Every shard needs at
	// least 2 peers.
	Shards int
	// Backends names each shard's ledger backend: empty = every shard
	// on Base.Backend; one entry = every shard on it; Shards entries =
	// per-shard assignment.
	Backends []string
	// MergeEvery is the merge cadence in shard rounds (default 1). The
	// final round always closes an epoch regardless of cadence.
	MergeEvery int
	// Mode selects sync (barrier) or async (on-arrival) merging.
	Mode MergeMode
	// Adaptive enables the per-shard epsilon-greedy wait-policy
	// controller over Policies.
	Adaptive bool
	// Policies is the controller's arm ladder (required when Adaptive).
	Policies []core.Policy
	// Events receives ShardRoundEnd / ShardModelCommitted / GlobalMerge
	// in virtual-clock order (ties broken by shard index).
	Events event.Sink
}

// epsilon is the adaptive controller's exploration rate.
const epsilon = 0.2

// What a zero Config.Shards / Config.MergeEvery stands for.
const (
	DefaultShards     = 2
	DefaultMergeEvery = 1
)

func (c Config) withDefaults() Config {
	c.Shards = cmp.Or(c.Shards, DefaultShards)
	c.MergeEvery = cmp.Or(c.MergeEvery, DefaultMergeEvery)
	return c
}

// fleet is the total peer count the hierarchy partitions.
func (c Config) fleet() int { return cmp.Or(c.Base.Peers, bfl.DefaultPeers) }

// Validate rejects impossible hierarchies.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: need at least 1 shard, got %d", c.Shards)
	}
	if c.fleet()/c.Shards < 2 {
		return fmt.Errorf("shard: %d peers across %d shards leaves a shard with fewer than 2 peers", c.fleet(), c.Shards)
	}
	switch len(c.Backends) {
	case 0, 1, c.Shards:
	default:
		return fmt.Errorf("shard: %d backends for %d shards (want 0, 1, or %d)", len(c.Backends), c.Shards, c.Shards)
	}
	for _, name := range c.Backends {
		if _, ok := ledger.Lookup(name); !ok {
			return fmt.Errorf("shard: unknown shard backend %q (registered: %v)", name, ledger.Names())
		}
	}
	if c.Mode != MergeSync && c.Mode != MergeAsync {
		return fmt.Errorf("shard: unknown merge mode %d", c.Mode)
	}
	if c.MergeEvery < 1 {
		return fmt.Errorf("shard: merge cadence %d < 1", c.MergeEvery)
	}
	if c.Adaptive && len(c.Policies) == 0 {
		return fmt.Errorf("shard: adaptive controller needs a policy ladder")
	}
	return nil
}

// partitionSizes splits n peers into s contiguous blocks: the first
// n%s shards get one extra peer.
func partitionSizes(n, s int) []int {
	sizes := make([]int, s)
	for i := range sizes {
		sizes[i] = n / s
		if i < n%s {
			sizes[i]++
		}
	}
	return sizes
}

// shardConfig is shard i's engine configuration: the fleet's, over its
// block view of the world. A single shard's block is the whole world —
// that is what makes S=1 bit-identical to the flat runner.
func (c Config) shardConfig(i int, view *bfl.World) bfl.Config {
	sc := c.Base
	sc.World = view
	sc.Events = nil // shard-level events tell the story; inner rounds are silent
	sc.EvalAllCombos = false
	switch len(c.Backends) {
	case 1:
		sc.Backend = c.Backends[0]
	case 0:
	default:
		sc.Backend = c.Backends[i]
	}
	return sc
}

// RoundAgg condenses one shard round for the report layer. It is the
// ShardRoundEnd event the round emits: the record is built once.
type RoundAgg = event.ShardRoundEnd

// ShardResult is one shard's complete record.
type ShardResult struct {
	Index   int
	Peers   int
	Backend string
	// Seed is the fleet seed, the same for every shard: a shard is a
	// block of the one world that seed builds.
	Seed uint64
	// Samples is the shard's summed training-shard size — its FedAvg
	// weight in every cross-shard merge.
	Samples int
	Rounds  []RoundAgg
	// Policies lists the wait policy used in each merge epoch (one
	// entry when the controller is off).
	Policies []string
	// FinalAccuracy is the shard's last published model on the global
	// evaluation set; CumWaitMs its total policy wait.
	FinalAccuracy float64
	CumWaitMs     float64
	// PeerRounds[peer][round-1] is the shard's inner per-peer record —
	// the same shape a flat decentralized run reports.
	PeerRounds [][]bfl.RoundStats
	// Chain summarizes the shard's own ledger footprint.
	Chain bfl.ChainStats
}

// Merge records one cross-shard merge: the GlobalMerge event it emits.
type Merge = event.GlobalMerge

// Result is the complete sharded-hierarchy output: only what the run
// determines, so the public report is this type.
type Result struct {
	// InitialAccuracy is the shared starting model on the global
	// evaluation set; FinalAccuracy the last merge's global model.
	InitialAccuracy float64
	FinalAccuracy   float64
	Shards          []ShardResult
	Merges          []Merge
	// HorizonMs is the virtual instant the last shard finished.
	HorizonMs float64
}

// shardRun is one shard's live state on the orchestrator's clock.
type shardRun struct {
	idx    int
	eng    *bfl.RoundEngine
	result *ShardResult
	step   float64 // commit cadence (whole virtual ms)
	lastTs float64 // latest commit instant (registration = step)

	rounds  int // completed rounds
	epoch   int // completed merge epochs
	cumWait float64

	// Latest published shard model and its publication instant (nil
	// model until the first epoch closes).
	model   []float32
	modelVc float64

	// ready marks a sync-mode shard parked at the barrier.
	ready bool

	// Controller state: current arm, current policy name, accuracy of
	// the previous published model (reward baseline), cumulative wait
	// at the epoch's start (reward denominator).
	armIdx         int
	policy         string
	prevAcc        float64
	epochWaitStart float64
}

type orchestrator struct {
	cfg     Config
	ctx     context.Context
	clock   *vclock.Clock
	sink    event.Sink
	shards  []*shardRun
	eval    fl.Evaluator
	initial []float32
	rounds  int // per-shard round budget (Base.Rounds, defaulted)

	ladder   []core.Policy
	bandits  []*bandit
	halfLife float64

	res        *Result
	mergeCount int // sync barrier counter
}

// Run executes the sharded hierarchy to completion, over
// cfg.Base.World when one is set.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o, err := newOrchestrator(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range o.shards {
		if err := s.eng.RegisterAt(s.step); err != nil {
			return nil, err
		}
		o.scheduleRound(s)
	}
	if err := o.clock.Run(); err != nil {
		return nil, err
	}
	o.res.HorizonMs = o.clock.Now()
	for _, s := range o.shards {
		s.result.FinalAccuracy = s.prevAcc
		s.result.CumWaitMs = s.cumWait
		flat := s.eng.Finish()
		s.result.PeerRounds, s.result.Chain = flat.Rounds, flat.Chain
		o.res.Shards = append(o.res.Shards, *s.result)
	}
	return o.res, nil
}

func newOrchestrator(ctx context.Context, cfg Config) (*orchestrator, error) {
	// One world at the fleet seed (checked against Base before any block
	// is cut from it), and one engine per contiguous block of it.
	world, err := cfg.Base.ResolveWorld()
	if err != nil {
		return nil, err
	}
	o := &orchestrator{
		cfg:     cfg,
		ctx:     ctx,
		clock:   vclock.New(),
		sink:    cfg.Events,
		initial: world.Initial(),
		ladder:  cfg.Policies,
		res:     &Result{},
	}
	root, lo := xrand.New(cfg.Base.Seed), 0
	for i, size := range partitionSizes(cfg.fleet(), cfg.Shards) {
		eng, err := bfl.NewRoundEngine(cfg.shardConfig(i, world.Block(lo, lo+size)))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s := &shardRun{
			idx:    i,
			eng:    eng,
			step:   eng.CommitStepMs(),
			lastTs: eng.CommitStepMs(), // registration commits at one step
			policy: eng.Config().Policy.Name(),
			result: &ShardResult{
				Index:   i,
				Peers:   size,
				Backend: eng.BackendName(),
				Seed:    cfg.Base.Seed,
				Samples: eng.TotalSamples(),
			},
		}
		o.shards = append(o.shards, s)
		lo += size
	}

	// The global evaluation set is drawn on its own label of the fleet
	// seed, used nowhere else, so building it perturbs nothing.
	defaulted := o.shards[0].eng.Config()
	o.rounds = defaulted.Rounds
	evalSet := dataset.GenerateSets(defaulted.Parallelism, dataset.DefaultConfig(),
		[]dataset.Draw{{N: defaulted.TestPerPeer, RNG: root.Derive("shard-global-eval")}})[0]
	o.eval = fl.NewScratch(defaulted.Model).Evaluator(evalSet)
	o.res.InitialAccuracy = o.eval(fl.Key{}, fl.Vector(o.initial))

	// Staleness half-life for async merges: the fleet-mean merge-epoch
	// span (cadence x one round's two commits).
	for _, s := range o.shards {
		s.prevAcc = o.res.InitialAccuracy
		o.halfLife += float64(cfg.MergeEvery) * 2 * s.step
	}
	o.halfLife /= float64(len(o.shards))
	if o.halfLife <= 0 {
		o.halfLife = 1
	}

	if cfg.Adaptive {
		for _, s := range o.shards {
			rng := root.Derive(fmt.Sprintf("bandit-%d", s.idx))
			o.bandits = append(o.bandits, newBandit(len(o.ladder), epsilon, rng))
			o.nextArm(s)
		}
	} else {
		for _, s := range o.shards {
			s.result.Policies = []string{s.policy}
		}
	}
	return o, nil
}

// nextArm asks shard s's bandit for the next epoch's wait policy.
func (o *orchestrator) nextArm(s *shardRun) {
	s.armIdx = o.bandits[s.idx].pick()
	p := o.ladder[s.armIdx]
	s.eng.SetPolicy(p)
	s.policy = p.Name()
	s.result.Policies = append(s.result.Policies, s.policy)
}

// scheduleRound lays shard s's next round on the clock: submission
// commit at the first block boundary strictly after the shard's last
// commit, decision commit one interval later, round body at the
// decision instant.
func (o *orchestrator) scheduleRound(s *shardRun) {
	ts1 := simnet.CommitVisibilityMs(s.lastTs, s.step)
	ts2 := ts1 + s.step
	s.lastTs = ts2
	o.clock.Schedule(ts2, s.idx, func() error { return o.runRound(s, ts1, ts2) })
}

func (o *orchestrator) runRound(s *shardRun, ts1, ts2 float64) error {
	round := s.rounds + 1
	sum, err := s.eng.RunRoundAt(o.ctx, round, ts1, ts2)
	if err != nil {
		return err
	}
	s.rounds = round
	s.cumWait += sum.MaxWaitMs
	agg := RoundAgg{
		Shard:        s.idx,
		Round:        round,
		Policy:       s.policy,
		MaxWaitMs:    sum.MaxWaitMs,
		CumWaitMs:    s.cumWait,
		VirtualMs:    ts2,
		MeanIncluded: sum.MeanIncluded,
	}
	s.result.Rounds = append(s.result.Rounds, agg)
	o.sink.Emit(agg)
	if round%o.cfg.MergeEvery != 0 && round != o.rounds {
		o.scheduleRound(s)
		return nil
	}
	return o.epochEnd(s, ts2)
}

// epochEnd publishes shard s's model, scores the controller's arm, and
// runs the configured merge discipline.
func (o *orchestrator) epochEnd(s *shardRun, now float64) error {
	s.epoch++
	model, err := fl.FedAvg(s.eng.Updates())
	if err != nil {
		return err
	}
	acc := o.eval(fl.Key{}, fl.Vector(model))
	s.model, s.modelVc = model, now
	o.sink.Emit(event.ShardModelCommitted{
		Shard:     s.idx,
		Epoch:     s.epoch,
		Round:     s.rounds,
		Policy:    s.policy,
		Samples:   s.result.Samples,
		Accuracy:  acc,
		VirtualMs: now,
		CumWaitMs: s.cumWait,
	})
	if o.cfg.Adaptive {
		// Reward: accuracy gained this epoch per second of policy wait.
		waitSec := (s.cumWait - s.epochWaitStart) / 1000
		o.bandits[s.idx].update(s.armIdx, (acc-s.prevAcc)/(waitSec+1e-3))
	}
	s.prevAcc = acc
	s.epochWaitStart = s.cumWait
	if o.cfg.Mode == MergeAsync {
		return o.asyncMerge(s, now)
	}
	return o.syncMerge(s, now)
}

// fleetWaitMs is the trade-off study's time axis: the slowest shard's
// cumulative policy wait (monotone in merge order).
func (o *orchestrator) fleetWaitMs() float64 {
	max := 0.0
	for _, s := range o.shards {
		if s.cumWait > max {
			max = s.cumWait
		}
	}
	return max
}

// resume restarts shard s after a merge: pick the next arm (adaptive),
// then lay the next round no earlier than the merge instant.
func (o *orchestrator) resume(s *shardRun, now float64) {
	if s.rounds >= o.rounds {
		return
	}
	if o.cfg.Adaptive {
		o.nextArm(s)
	}
	if s.lastTs < now {
		s.lastTs = now
	}
	o.scheduleRound(s)
}

// landMerge records one cross-shard merge — trajectory entry and event
// are the same value — and its global model's accuracy, which the last
// merge leaves as the run's final one.
func (o *orchestrator) landMerge(m Merge) {
	o.res.Merges = append(o.res.Merges, m)
	o.res.FinalAccuracy = m.Accuracy
	o.sink.Emit(m)
}

func (o *orchestrator) syncMerge(s *shardRun, now float64) error {
	s.ready = true
	for _, sh := range o.shards {
		if !sh.ready {
			return nil // barrier: wait for the stragglers
		}
	}
	updates := make([]*fl.Update, len(o.shards))
	for i, sh := range o.shards {
		updates[i] = &fl.Update{Client: fmt.Sprintf("shard-%d", i), Weights: sh.model, NumSamples: sh.result.Samples}
	}
	global, err := fl.FedAvg(updates)
	if err != nil {
		return err
	}
	o.mergeCount++
	o.landMerge(Merge{
		Epoch:     o.mergeCount,
		Shard:     -1,
		Mode:      MergeSync.String(),
		Included:  len(updates),
		Accuracy:  o.eval(fl.Key{}, fl.Vector(global)),
		WaitMs:    o.fleetWaitMs(),
		VirtualMs: now,
	})
	for _, sh := range o.shards {
		sh.ready = false
		// A single shard makes the merge an identity observation: the
		// global model IS the shard model, and pushing its FedAvg back
		// into the peers would depart from the flat decentralized run
		// the S=1 hierarchy must reproduce exactly.
		if len(o.shards) > 1 {
			if err := sh.eng.AdoptAll(global); err != nil {
				return err
			}
		}
		o.resume(sh, now)
	}
	return nil
}

func (o *orchestrator) asyncMerge(s *shardRun, now float64) error {
	updates := make([]*fl.Update, 0, len(o.shards))
	ages := make([]float64, 0, len(o.shards))
	published := 0
	for i, sh := range o.shards {
		w, at := sh.model, sh.modelVc
		if w == nil {
			w, at = o.initial, 0 // not yet published: its starting point, aged from t=0
		} else {
			published++
		}
		updates = append(updates, &fl.Update{Client: fmt.Sprintf("shard-%d", i), Weights: w, NumSamples: sh.result.Samples})
		ages = append(ages, now-at)
	}
	coef := fl.StalenessWeights(updates, ages, o.halfLife)
	global, err := fl.WeightedFedAvg(updates, coef)
	if err != nil {
		return err
	}
	o.landMerge(Merge{
		Epoch:     s.epoch,
		Shard:     s.idx,
		Mode:      MergeAsync.String(),
		Included:  published,
		Accuracy:  o.eval(fl.Key{}, fl.Vector(global)),
		WaitMs:    o.fleetWaitMs(),
		VirtualMs: now,
	})
	// Single-shard merges are identity observations (see syncMerge).
	if len(o.shards) > 1 {
		if err := s.eng.AdoptAll(global); err != nil {
			return err
		}
	}
	o.resume(s, now)
	return nil
}
