package waitornot

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"waitornot/internal/bfl"
	"waitornot/internal/campaign"
	"waitornot/internal/event"
	"waitornot/internal/metrics"
	"waitornot/internal/par"
	"waitornot/internal/stats"
)

// seedList resolves the seeds a sweep replicates over: the scenario's
// explicit list (duplicates rejected: replaying a seed would
// double-count one deterministic outcome as two samples), else
// WithReplications expanded to consecutive seeds from Options.Seed.
func (e *Experiment) seedList() ([]uint64, error) {
	if len(e.sc.Seeds) > 0 {
		seen := map[uint64]bool{}
		for _, s := range e.sc.Seeds {
			if seen[s] {
				return nil, fmt.Errorf("waitornot: duplicate sweep seed %d (each replication must be an independent run)", s)
			}
			seen[s] = true
		}
		return slices.Clone(e.sc.Seeds), nil
	}
	if e.replications > 0 {
		base := e.sc.Options.withDefaults().Seed
		seeds := make([]uint64, e.replications)
		for i := range seeds {
			seeds[i] = base + uint64(i)
		}
		return seeds, nil
	}
	return nil, fmt.Errorf("waitornot: a sweep needs seeds: use WithSeeds, WithReplications, or a scenario that declares Seeds")
}

// Summary is the per-cell distribution of one sweep metric (N, Mean,
// Std, Min, Max and the 95% confidence half-width CI95 over the cell's
// replications) — the statistics engine's own snapshot type. Its
// String() renders "mean ± CI95" at four decimals, the way the sweep
// table does.
type Summary = stats.Summary

// formatSummary renders mean ± 95% CI half-width at the given decimal
// precision.
func formatSummary(s Summary, decimals int) string {
	return fmt.Sprintf("%.*f ± %.*f", decimals, s.Mean, decimals, s.CI95)
}

// SweepRun is one replication of a sweep: the headline outcome of a
// single deterministic run at (Seed, Policy, Backend) — bit-identical
// to what a standalone Experiment.Run at that seed reports for the
// same cell.
type SweepRun struct {
	Seed    uint64 `json:"seed"`
	Policy  string `json:"policy"`
	Backend string `json:"backend,omitempty"`
	// FinalAccuracy / MeanWaitMs / MeanIncluded are the trade-off
	// study's headline metrics (DecentralizedReport.Headline).
	FinalAccuracy float64 `json:"final_accuracy"`
	MeanWaitMs    float64 `json:"mean_wait_ms"`
	MeanIncluded  float64 `json:"mean_included"`
	// TimeToAccMs is the virtual time at which the run's mean accuracy
	// first reached the sweep's target accuracy: -1 when the run never
	// got there, nil when no target was set.
	TimeToAccMs *float64 `json:"time_to_acc_ms,omitempty"`
}

// SweepCell aggregates one policy × backend cell over every seed.
type SweepCell struct {
	Policy  string `json:"policy"`
	Backend string `json:"backend,omitempty"`
	// Accuracy / WaitMs / Included summarize the cell's replications.
	Accuracy Summary `json:"accuracy"`
	WaitMs   Summary `json:"wait_ms"`
	Included Summary `json:"included"`
	// TimeToAcc summarizes time-to-target-accuracy over the
	// replications that reached the target (its N is how many did).
	// Nil when no target was set.
	TimeToAcc *Summary `json:"time_to_acc,omitempty"`
}

// SweepReport is a replication sweep's output: the raw per-replication
// runs (seed-major, then backend-major, then policy order — the flat
// work-list order SweepProgress events stream in) and the per-cell
// distributions (backend-major × policy order). A KindTradeoff Run
// reports the one-seed sweep at Options.Seed: Runs and Cells then hold
// the same grid.
type SweepReport struct {
	Model    Model    `json:"model"`
	Scenario string   `json:"scenario,omitempty"`
	Seeds    []uint64 `json:"seeds"`
	// TargetAccuracy echoes WithTargetAccuracy when the sweep tracked
	// time-to-target.
	TargetAccuracy float64     `json:"target_accuracy,omitempty"`
	Runs           []SweepRun  `json:"runs"`
	Cells          []SweepCell `json:"cells"`
}

// RunSweep executes the experiment once per seed × policy × backend
// and reports each cell's outcome distribution as mean ± 95% CI. It
// is the multi-seed sibling of Run: where Run answers "what happened
// at this seed", RunSweep answers "what happens on average, and how
// sure are we" — the form the paper's trade-off curve needs to be
// distinguishable from RNG noise.
//
// The replications are scheduled as one flat work list through the
// deterministic worker pool: outer-loop parallelism across cells,
// each replication an independent single-seed run (inner parallelism
// shrinks so total concurrency stays near Options.Parallelism). Every
// replication is bit-identical to a standalone Experiment.Run at the
// same seed, at any Parallelism — so the sweep adds statistics, never
// noise. Observers receive one SweepProgress per replication in flat
// work-list order; per-round events are suppressed (they would
// interleave across concurrent replications).
//
// KindTradeoff, KindAsync and KindDecentralized sweep the policy ×
// backend ladder per seed (an empty decentralized ladder is the single
// configured policy and backend); KindSharded sweeps hierarchy topology
// instead — backend × shard count × merge cadence (Scenario.ShardCounts
// / MergeCadences), each cell labeled "S=<shards>/M=<cadence>".
// KindVanilla has no wait/latency semantics and is rejected. Combo
// tables are always skipped: the sweep consumes only headline metrics.
func (e *Experiment) RunSweep(ctx context.Context) (*SweepReport, error) {
	return e.runSweep(ctx, "")
}

// runSweep is the one sweep loop behind RunSweep and RunCampaign: a
// campaign is a sweep with a log. With dir == "" it keeps no log. With
// a directory it opens the campaign there, restores the cells its log
// holds (each checked against the grid) and streams them first, then
// computes the rest, appending each computed cell to the log before
// that cell's event fires. Restored and computed runs fold into the
// report in flat work-list order, so the bytes are the same either way.
func (e *Experiment) runSweep(ctx context.Context, dir string) (*SweepReport, error) {
	plan, err := e.sweepPlan()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := plan.total()
	runs := make([]SweepRun, total)
	done := make([]bool, total)
	var log *campaign.Log
	if dir != "" {
		m, err := plan.manifest()
		if err != nil {
			return nil, err
		}
		var records []campaign.Record
		if log, records, err = campaign.Open(dir, m); err != nil {
			return nil, err
		}
		defer log.Close()
		for _, r := range records {
			run, err := plan.restore(dir, r)
			if err != nil {
				return nil, err
			}
			runs[r.Index], done[r.Index] = run, true
		}
	}

	sink := observerSink(e.observer)
	progress := func(i, landed int, fromLog bool, run SweepRun) event.Event {
		return event.SweepProgress{
			Index: i, Total: total, Done: landed, Restored: fromLog,
			Seed: run.Seed, Policy: run.Policy, Backend: run.Backend,
			FinalAccuracy: run.FinalAccuracy, MeanWaitMs: run.MeanWaitMs, MeanIncluded: run.MeanIncluded,
		}
	}
	// Restored cells stream first, in work-list order: a campaign's
	// cross-session progress meter picks up exactly where it stopped.
	restored := 0
	todo := make([]int, 0, total)
	for i, ok := range done {
		if !ok {
			todo = append(todo, i)
			continue
		}
		restored++
		sink.Emit(progress(i, restored, true, runs[i]))
	}
	computed, err := plan.runAll(ctx, sink, todo, func(j int, run SweepRun) (event.Event, error) {
		i := todo[j]
		if log != nil {
			payload, err := json.Marshal(run)
			if err != nil {
				return nil, fmt.Errorf("waitornot: campaign cell %d: %w", i, err)
			}
			// Durability before visibility: the record is fsync'd before
			// the progress event fires, so an observer that has seen cell
			// i can rely on a resume never recomputing it.
			if err := log.Append(campaign.Record{Index: i, ID: plan.cellID(i), Payload: payload}); err != nil {
				return nil, err
			}
		}
		return progress(i, restored+j+1, false, run), nil
	})
	if err != nil {
		// Everything appended so far is durable; another RunCampaign on
		// the same dir resumes from it.
		return nil, err
	}
	for j, i := range todo {
		runs[i] = computed[j]
	}
	return plan.report(runs, nil), nil
}

// sweepVariant is one per-backend cell axis value: a wait policy for
// the classic kinds, a shard-count × merge-cadence combination for
// KindSharded. The variant's label names the cell (the report's policy
// column), so classic sweeps keep their exact cell names and
// byte-identical reports.
type sweepVariant struct {
	Label   string `json:"label"`
	Policy  Policy `json:"policy"`
	Shards  int    `json:"shards,omitempty"`
	Cadence int    `json:"cadence,omitempty"`
}

// sweepPlan is a run description resolved into its flat work list: the
// seed-major, backend-major, variant-minor grid RunSweep schedules
// through the worker pool. RunCampaign persists the same plan, so a
// stored cell is keyed and computed exactly as an in-memory one; a
// KindTradeoff Run is the plan over the single seed Options.Seed.
//
// The plan is also its own campaign snapshot: its compact JSON is what
// the manifest stores and what the fingerprint hashes — every knob
// that can change a cell's result, and nothing that cannot — so two
// processes agree on "same campaign" exactly when they would compute
// the same grid, and status tooling (LoadCampaign) rebuilds the grid
// by unmarshaling it. Tags and field order are therefore on-disk
// format (DESIGN §10; pinned by TestCampaignOnDiskFormatGolden).
type sweepPlan struct {
	Format   int    `json:"format"`
	Kind     string `json:"kind"`
	Scenario string `json:"scenario,omitempty"`
	// Options is the per-replication configuration: defaults applied,
	// combo tables off, Parallelism zeroed. Results are bit-identical at
	// any worker count, so the worker budget is not identity — a
	// campaign started sequentially may be resumed on every core — and
	// lives in workers / inner below.
	Options  Options        `json:"options"`
	Variants []sweepVariant `json:"variants"`
	Backends []string       `json:"backends"`
	Seeds    []uint64       `json:"seeds"`
	// Ladder is the experiment's policy ladder as declared; it rides
	// into KindSharded cells through the adaptive controller, so it is
	// result-relevant.
	Ladder []Policy `json:"ladder,omitempty"`
	Target float64  `json:"target_accuracy,omitempty"`

	// workers bounds the outer pool that schedules cells; inner is each
	// cell's own Parallelism, so total concurrency stays near the
	// configured one. Scheduling only: never marshaled.
	workers, inner int

	// worlds[k], while runAll runs, holds Seeds[k]'s shared bfl.World,
	// built by the seed's first cell from its options (a seed's cells
	// differ only in policy, backend, shard count and merge cadence,
	// which no world depends on: a shard runs a block of it) and
	// dropped when its last cell lands.
	worlds []seedWorld
}

// seedWorld is one seed's world and how many of its cells are left.
type seedWorld struct {
	once  sync.Once
	world *bfl.World
	err   error
	left  atomic.Int32
}

// sweepPlan is the single place a run description is resolved: it
// checks the description, fills the ladders and axes a scenario left
// to their defaults, and validates every cell's configuration through
// the same Options.Validate a single run goes through — so whatever
// resolves here runs, which is what RegisterScenario relies on.
func (e *Experiment) sweepPlan() (*sweepPlan, error) {
	if err := e.check(); err != nil {
		return nil, err
	}
	seeds, err := e.seedList()
	if err != nil {
		return nil, err
	}
	if t := e.target; !(t >= 0 && t <= 1) {
		return nil, fmt.Errorf("waitornot: target accuracy %g outside [0, 1]", t)
	}
	sc := e.sc
	opts := sc.Options.withDefaults()
	backends := sc.Backends
	if len(backends) == 0 {
		backends = []string{opts.Backend}
	}
	var variants []sweepVariant
	switch sc.Kind {
	case KindDecentralized, KindTradeoff, KindAsync:
		// KindAsync sweeps the same policy × backend ladder, with each
		// cell an un-barriered run — the "async ladder" the virtual
		// clock unlocks. Without a ladder, a decentralized sweep runs
		// its one configured policy, the others the default ladder.
		policies := sc.Policies
		if len(policies) == 0 && sc.Kind == KindDecentralized {
			policies = []Policy{opts.Policy}
		} else if len(policies) == 0 {
			policies = DefaultPolicies(opts.clients())
		}
		for _, p := range policies {
			variants = append(variants, sweepVariant{Label: p.Name(), Policy: p})
		}
	case KindSharded:
		// The sharded sweep's per-backend axes are topology, not wait
		// policy: shard count × merge cadence, each cell one hierarchy.
		// An axis entry names a value, so the Options reading of 0 as
		// "the default" does not apply to it.
		shardCounts, cadences := sc.ShardCounts, sc.MergeCadences
		if len(shardCounts) == 0 {
			shardCounts = []int{opts.shards()}
		}
		if len(cadences) == 0 {
			cadences = []int{opts.mergeCadence()}
		}
		for _, s := range shardCounts {
			for _, m := range cadences {
				if s < 1 || m < 1 {
					return nil, fmt.Errorf("waitornot: sweep axes start at 1: shard count %d, merge cadence %d", s, m)
				}
				variants = append(variants, sweepVariant{
					Label:   fmt.Sprintf("S=%d/M=%d", s, m),
					Policy:  opts.Policy,
					Shards:  s,
					Cadence: m,
				})
			}
		}
	default: // KindVanilla: check has refused every unknown kind
		return nil, fmt.Errorf("waitornot: %v experiments cannot be swept (no wait/latency metrics); use KindTradeoff, KindAsync, KindSharded, or KindDecentralized", sc.Kind)
	}
	workers := par.Workers(opts.Parallelism)
	opts.SkipComboTables = true
	opts.Parallelism = 0
	plan := &sweepPlan{
		Format:   campaign.FormatVersion,
		Kind:     sc.Kind.String(),
		Scenario: sc.Name,
		Options:  opts,
		Variants: variants,
		Backends: backends,
		Seeds:    seeds,
		Ladder:   sc.Policies,
		Target:   e.target,
		workers:  workers,
	}
	plan.inner = max(1, workers/max(1, plan.total()))
	// A repeated ladder entry would be two cells under one label — one
	// row, its replications counted twice (the seed rule, per axis) — so
	// a cell's position and its label name one cell.
	seen := map[[2]string]bool{}
	for _, b := range backends {
		for _, v := range variants {
			if seen[[2]string{b, v.Label}] {
				return nil, fmt.Errorf("waitornot: duplicate sweep cell %s backend %q (each ladder entry must name a distinct cell)", v.Label, b)
			}
			seen[[2]string{b, v.Label}] = true
			if err := plan.options(opts.Seed, b, v).Validate(); err != nil {
				return nil, fmt.Errorf("waitornot: sweep cell %s backend %q: %w", v.Label, b, err)
			}
		}
	}
	return plan, nil
}

// cells is the grid width: cells per seed.
func (p *sweepPlan) cells() int { return len(p.Backends) * len(p.Variants) }

// total is the flat work-list length: one item per cell replication.
func (p *sweepPlan) total() int { return len(p.Seeds) * p.cells() }

// cell decomposes flat index i into its (seed, backend, variant)
// coordinates — the seed-major, backend-major, variant-minor order the
// work list streams in.
func (p *sweepPlan) cell(i int) (seed uint64, backend string, v sweepVariant) {
	cells := p.cells()
	return p.Seeds[i/cells], p.Backends[(i%cells)/len(p.Variants)], p.Variants[i%len(p.Variants)]
}

// options is the configuration one cell runs: the plan's, at the cell's
// coordinates and the inner worker budget.
func (p *sweepPlan) options(seed uint64, backend string, v sweepVariant) Options {
	o := p.Options
	o.Parallelism = p.inner
	o.Seed = seed
	o.Backend = backend
	o.Policy = v.Policy
	if v.Shards > 0 {
		o.Shards = v.Shards
		o.MergeCadence = v.Cadence
		o.ShardBackends = nil // the backend axis assigns all shards at once
	}
	return o
}

// run executes work item i: one independent deterministic run at the
// cell's coordinates, bit-identical to a standalone Experiment.Run at
// that seed. A world it builds takes EffNetB0Sim's weights from backbone.
func (p *sweepPlan) run(ctx context.Context, i int, backbone func() []float32) (SweepRun, error) {
	seed, b, v := p.cell(i)
	o := p.options(seed, b, v)
	sw := &p.worlds[i/p.cells()]
	sw.once.Do(func() {
		// The seed's other cells wait on this Once, so the build takes
		// the plan's whole worker budget, not one cell's.
		c := o.decentralized()
		c.Parallelism, c.Backbone = p.workers, backbone
		if sw.world, sw.err = bfl.NewWorld(c); sw.err == nil {
			sw.world.Share(int(sw.left.Load())) // the seed's cells this sweep runs
		}
	})
	w, err := sw.world, sw.err // the seed's, shared
	// Every report type exposes the same headline reduction; only
	// the runner differs per kind.
	var rep interface {
		Headline() (float64, float64, float64)
		TimeToAccuracyMs(float64) float64
	}
	switch {
	case err != nil:
	case p.Kind == KindAsync.String():
		rep, err = runAsyncExperiment(ctx, o, nil, w)
	case p.Kind == KindSharded.String():
		rep, err = runShardedExperiment(ctx, o, p.Ladder, nil, w)
	default:
		rep, err = runDecentralizedExperiment(ctx, o, nil, w)
	}
	if err != nil {
		return SweepRun{}, fmt.Errorf("seed %d cell %s backend %q: %w", seed, v.Label, b, err)
	}
	acc, wait, included := rep.Headline()
	var tta *float64
	if p.Target > 0 {
		v := rep.TimeToAccuracyMs(p.Target)
		tta = &v
	}
	return SweepRun{
		Seed:          seed,
		Policy:        v.Label,
		Backend:       b,
		FinalAccuracy: acc,
		MeanWaitMs:    wait,
		MeanIncluded:  included,
		TimeToAccMs:   tta,
	}, nil
}

// runAll executes the work items todo (flat indices) through the
// deterministic worker pool — the "run cell, land it, emit in order"
// step of runSweep. landed is called once per completed item with its
// position j in todo; the event it returns is forwarded restored to
// todo order, and an error from it (a campaign's failed append) stops
// the run. The runs come back in todo order.
func (p *sweepPlan) runAll(ctx context.Context, sink event.Sink, todo []int, landed func(j int, run SweepRun) (event.Event, error)) ([]SweepRun, error) {
	p.worlds = make([]seedWorld, len(p.Seeds))
	defer func() { p.worlds = nil }()
	backbone := sync.OnceValue(func() []float32 { return bfl.Backbone(p.workers) }) // one warm start a run
	for _, i := range todo {
		p.worlds[i/p.cells()].left.Add(1)
	}
	emit := newOrderedEmitter(sink)
	return par.MapCtx(ctx, p.workers, len(todo), func(j int) (SweepRun, error) {
		run, err := p.run(ctx, todo[j], backbone)
		if err != nil {
			return SweepRun{}, err
		}
		if sw := &p.worlds[todo[j]/p.cells()]; sw.left.Add(-1) == 0 {
			sw.world = nil // the seed's last cell has landed
		}
		ev, err := landed(j, run)
		if err != nil {
			return SweepRun{}, err
		}
		emit.emit(j, ev)
		return run, nil
	})
}

// report assembles the SweepReport from the flat, index-ordered run
// list: run i folds into cell i % cells, so each cell sees its samples
// in seed order no matter how the pool scheduled (or a resumed campaign
// restored) the replications, keeping the report bit-stable. A non-nil
// done marks the runs that have landed (campaign status): Runs keeps
// only those, and each cell renders the bytes a complete sweep would
// for its landed replications (n=0 for none).
func (p *sweepPlan) report(runs []SweepRun, done []bool) *SweepReport {
	rep := &SweepReport{Model: p.Options.Model, Scenario: p.Scenario, Seeds: p.Seeds, TargetAccuracy: p.Target, Runs: runs}
	if done != nil {
		rep.Runs = make([]SweepRun, 0, len(runs))
	}
	type cellStats struct{ acc, wait, included, tta stats.Welford }
	acc := make([]cellStats, p.cells())
	for i, r := range runs {
		if done != nil {
			if !done[i] {
				continue
			}
			rep.Runs = append(rep.Runs, r)
		}
		c := &acc[i%len(acc)]
		c.acc.Add(r.FinalAccuracy)
		c.wait.Add(r.MeanWaitMs)
		c.included.Add(r.MeanIncluded)
		// Time-to-target accumulates only over replications that
		// reached the target: "never" is reported by the cell's N,
		// not by poisoning the mean with sentinels.
		if r.TimeToAccMs != nil && *r.TimeToAccMs >= 0 {
			c.tta.Add(*r.TimeToAccMs)
		}
	}
	for i, c := range acc {
		_, b, v := p.cell(i)
		cell := SweepCell{Policy: v.Label, Backend: b, Accuracy: c.acc.Summary(), WaitMs: c.wait.Summary(), Included: c.included.Summary()}
		if p.Target > 0 {
			s := c.tta.Summary()
			cell.TimeToAcc = &s
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep
}

// withBackendColumn reports whether any cell names a backend (the
// table and CSV add the column only then, keeping the classic
// single-substrate sweep's output shape unchanged).
func (r *SweepReport) withBackendColumn() bool {
	return slices.ContainsFunc(r.Cells, func(c SweepCell) bool { return c.Backend != "" })
}

// Table renders the per-cell distributions as `mean ± 95% CI` (a
// one-seed sweep, such as a KindTradeoff Run, shows each arm's value
// with a zero half-width). A backend column appears when the sweep
// spanned consensus backends.
func (r *SweepReport) Table() string {
	withBackends := r.withBackendColumn()
	seeds := fmt.Sprintf("%d seeds", len(r.Seeds))
	if len(r.Seeds) == 1 {
		seeds = "1 seed"
	}
	title := fmt.Sprintf("Wait or not to wait (%s): speed vs precision per wait policy, mean ± 95%% CI over %s",
		r.Model, seeds)
	header := []string{"policy", "n", "final acc", "mean wait (ms)", "mean models"}
	if r.TargetAccuracy > 0 {
		header = append(header, fmt.Sprintf("t to %.0f%% acc (ms)", r.TargetAccuracy*100), "reached")
	}
	if withBackends {
		title = fmt.Sprintf("Wait or not to wait (%s): speed vs precision per backend and wait policy, mean ± 95%% CI over %s",
			r.Model, seeds)
		header = append([]string{"backend"}, header...)
	}
	tab := metrics.NewTable(title, header...)
	for _, c := range r.Cells {
		row := []string{c.Policy, fmt.Sprint(c.Accuracy.N),
			c.Accuracy.String(), formatSummary(c.WaitMs, 1), formatSummary(c.Included, 2)}
		if r.TargetAccuracy > 0 {
			tta, reached := "n/a", "0"
			if c.TimeToAcc != nil && c.TimeToAcc.N > 0 {
				tta = formatSummary(*c.TimeToAcc, 1)
				reached = fmt.Sprintf("%d/%d", c.TimeToAcc.N, c.Accuracy.N)
			} else if c.Accuracy.N > 0 {
				reached = fmt.Sprintf("0/%d", c.Accuracy.N)
			}
			row = append(row, tta, reached)
		}
		if withBackends {
			row = append([]string{c.Backend}, row...)
		}
		tab.Add(row...)
	}
	return tab.ASCII()
}

// CSV renders the per-cell distributions machine-readably, one row
// per cell with the full summary (mean, std, min, max, CI half-width)
// of each metric — the grid plotting scripts consume.
func (r *SweepReport) CSV() string {
	withBackends := r.withBackendColumn()
	header := []string{"policy", "n"}
	if withBackends {
		header = append([]string{"backend"}, header...)
	}
	for _, m := range []string{"acc", "wait_ms", "included"} {
		header = append(header, m+"_mean", m+"_std", m+"_min", m+"_max", m+"_ci95")
	}
	if r.TargetAccuracy > 0 {
		header = append(header, "tta_ms_n", "tta_ms_mean", "tta_ms_std", "tta_ms_min", "tta_ms_max", "tta_ms_ci95")
	}
	tab := metrics.NewTable("", header...)
	f := func(v float64) string { return fmt.Sprintf("%g", v) }
	for _, c := range r.Cells {
		row := []string{c.Policy, fmt.Sprint(c.Accuracy.N)}
		if withBackends {
			row = append([]string{c.Backend}, row...)
		}
		for _, s := range []Summary{c.Accuracy, c.WaitMs, c.Included} {
			row = append(row, f(s.Mean), f(s.Std), f(s.Min), f(s.Max), f(s.CI95))
		}
		if r.TargetAccuracy > 0 {
			s := Summary{}
			if c.TimeToAcc != nil {
				s = *c.TimeToAcc
			}
			row = append(row, fmt.Sprint(s.N), f(s.Mean), f(s.Std), f(s.Min), f(s.Max), f(s.CI95))
		}
		tab.Add(row...)
	}
	return tab.CSV()
}

// RunsCSV renders the raw per-replication samples, one row per run in
// flat work-list order — for plotting distributions rather than
// summaries.
func (r *SweepReport) RunsCSV() string {
	header := []string{"seed", "backend", "policy", "final_accuracy", "mean_wait_ms", "mean_included"}
	if r.TargetAccuracy > 0 {
		header = append(header, "time_to_acc_ms")
	}
	tab := metrics.NewTable("", header...)
	for _, run := range r.Runs {
		row := []string{fmt.Sprint(run.Seed), run.Backend, run.Policy,
			fmt.Sprintf("%g", run.FinalAccuracy), fmt.Sprintf("%g", run.MeanWaitMs), fmt.Sprintf("%g", run.MeanIncluded)}
		if r.TargetAccuracy > 0 {
			cell := ""
			if run.TimeToAccMs != nil {
				cell = fmt.Sprintf("%g", *run.TimeToAccMs)
			}
			row = append(row, cell)
		}
		tab.Add(row...)
	}
	return tab.CSV()
}

// JSON renders the full report (seeds, raw runs, and cell summaries)
// as indented JSON.
func (r *SweepReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
