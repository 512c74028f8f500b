// Replication-sweep tests: RunSweep must schedule seed × policy ×
// backend replications through the deterministic pool with every cell
// bit-identical to a standalone run at that seed, render mean ± 95% CI
// tables and exports byte-for-byte reproducibly at any Parallelism,
// stream SweepProgress in flat work-list order, and cancel
// cooperatively.
package waitornot_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"waitornot"
	"waitornot/internal/testutil"
)

// sweepOpts is the small fixed sweep the golden tests pin: a tiny
// straggler run with commit latency modeled, so the pow and instant
// rows differ and the table exercises the backend column.
func sweepOpts() waitornot.Options {
	opts := testutil.TinyStreamOptions()
	opts.Rounds = 1
	opts.StragglerFactor = []float64{1, 1, 3}
	opts.CommitLatency = true
	return opts
}

// sweepPolicies is the golden sweep's two-policy ladder.
func sweepPolicies() []waitornot.Policy {
	return []waitornot.Policy{
		{Kind: waitornot.WaitAll},
		{Kind: waitornot.FirstK, K: 1},
	}
}

func runGoldenSweep(t *testing.T, parallelism int, extra ...waitornot.Option) *waitornot.SweepReport {
	t.Helper()
	opts := sweepOpts()
	opts.Parallelism = parallelism
	expOpts := append([]waitornot.Option{
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(sweepPolicies()...),
		waitornot.WithBackends("pow", "instant"),
		waitornot.WithSeeds(1, 2, 3),
	}, extra...)
	rep, err := waitornot.New(opts, expOpts...).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSweepReportGolden pins SweepReport.Table(), the cell and raw-run
// CSVs, and the JSON export byte-for-byte for the fixed sweep
// (seeds {1,2,3} × {wait-all, first-1} × {pow, instant}), at
// Parallelism 1 and at NumCPU: the rendered statistics may depend on
// nothing but the configuration.
func TestSweepReportGolden(t *testing.T) {
	seq := runGoldenSweep(t, 1)
	par := runGoldenSweep(t, 0)
	testutil.GoldenEqual(t, "sweep-report", seq, par)
	if par.Table() != seq.Table() || par.CSV() != seq.CSV() || par.RunsCSV() != seq.RunsCSV() {
		t.Fatal("sweep renderings differ across Parallelism")
	}
	seqJSON, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	testutil.GoldenFile(t, filepath.Join("testdata", "sweep_table.golden"), []byte(seq.Table()))
	testutil.GoldenFile(t, filepath.Join("testdata", "sweep_cells.golden.csv"), []byte(seq.CSV()))
	testutil.GoldenFile(t, filepath.Join("testdata", "sweep_runs.golden.csv"), []byte(seq.RunsCSV()))
	testutil.GoldenFile(t, filepath.Join("testdata", "sweep_report.golden.json"), seqJSON)
}

// TestSweepMatchesSoloRuns proves the acceptance criterion: every
// replication of the sweep is bit-identical to a standalone
// Experiment.Run at the same seed — the sweep adds statistics, never
// noise. RunSweep and a KindTradeoff Run schedule the same grid, so the
// independent reference is the single-run path: one KindDecentralized
// run per (seed, backend, policy), reduced with Headline(), against
// which both grid entry points are checked.
func TestSweepMatchesSoloRuns(t *testing.T) {
	rep := runGoldenSweep(t, 0)
	if len(rep.Runs) != 3*2*2 {
		t.Fatalf("got %d runs, want seeds × backends × policies = 12", len(rep.Runs))
	}
	backends := []string{"pow", "instant"}
	next := 0 // rep.Runs is seed-major, backend-major, policy-minor
	for _, seed := range []uint64{1, 2, 3} {
		grid, err := waitornot.New(sweepOpts(),
			waitornot.WithKind(waitornot.KindTradeoff),
			waitornot.WithPolicies(sweepPolicies()...),
			waitornot.WithBackends(backends...),
			waitornot.WithSeed(seed)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		outcomes := grid.Tradeoff.Outcomes
		if len(outcomes) != len(backends)*len(sweepPolicies()) {
			t.Fatalf("seed %d: %d trade-off outcomes, want %d", seed, len(outcomes), len(backends)*len(sweepPolicies()))
		}
		for bi, backend := range backends {
			for pi, policy := range sweepPolicies() {
				opts := sweepOpts()
				opts.Policy = policy
				opts.SkipComboTables = true
				solo, err := waitornot.New(opts,
					waitornot.WithBackend(backend),
					waitornot.WithSeed(seed)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				acc, wait, included := solo.Decentralized.Headline()
				r, o := rep.Runs[next], outcomes[bi*len(sweepPolicies())+pi]
				next++
				if r.Seed != seed || r.Policy != policy.Name() || r.Backend != backend {
					t.Fatalf("sweep ran (seed %d, %s, %s), want (seed %d, %s, %s)",
						r.Seed, r.Policy, r.Backend, seed, policy.Name(), backend)
				}
				if o.Policy != policy.Name() || o.Backend != backend {
					t.Fatalf("seed %d: trade-off ran (%s, %s), want (%s, %s)", seed, o.Policy, o.Backend, policy.Name(), backend)
				}
				// Exact float equality: bit-identical, not merely close.
				if r.FinalAccuracy != acc || r.MeanWaitMs != wait || r.MeanIncluded != included {
					t.Fatalf("seed %d %s@%s: sweep (%v, %v, %v) != solo (%v, %v, %v)",
						seed, r.Policy, r.Backend, r.FinalAccuracy, r.MeanWaitMs, r.MeanIncluded, acc, wait, included)
				}
				if o.FinalAccuracy != acc || o.MeanWaitMs != wait || o.MeanIncluded != included {
					t.Fatalf("seed %d %s@%s: trade-off (%v, %v, %v) != solo (%v, %v, %v)",
						seed, o.Policy, o.Backend, o.FinalAccuracy, o.MeanWaitMs, o.MeanIncluded, acc, wait, included)
				}
			}
		}
	}
}

// TestSweepWorldFieldsMatchSoloRuns extends TestSweepMatchesSoloRuns
// to the parts of a seed's shared world that the pow/instant golden
// grid never reads: the lazily built pbft verification set, the
// asynchronous engine, the participant schedule and poisoned shard of a
// client-fraction fleet, and a Dirichlet partition. Every sweep run
// must equal a standalone Experiment.Run of its cell, bit for bit, over
// two seeds, so a world's lifetime crosses a seed boundary.
func TestSweepWorldFieldsMatchSoloRuns(t *testing.T) {
	for _, tc := range []struct {
		name     string
		kind     waitornot.Kind
		backends []string
		mutate   func(*waitornot.Options)
	}{
		{"pbft", waitornot.KindTradeoff, []string{"pbft"}, func(*waitornot.Options) {}},
		{"async", waitornot.KindAsync, []string{"pow", "instant"}, func(*waitornot.Options) {}},
		{"client-fraction+poison", waitornot.KindTradeoff, []string{"poa"}, func(o *waitornot.Options) {
			o.Clients, o.ClientFraction, o.StragglerFactor = 6, 0.5, nil
			o.PoisonClient, o.PoisonFraction = 1, 0.5
		}},
		{"dirichlet", waitornot.KindTradeoff, []string{"pow"}, func(o *waitornot.Options) { o.DirichletAlpha = 0.5 }},
	} {
		opts := sweepOpts()
		opts.Rounds = 2
		tc.mutate(&opts)
		sweepOptions := opts
		sweepOptions.Parallelism = 4
		rep, err := waitornot.New(sweepOptions,
			waitornot.WithKind(tc.kind),
			waitornot.WithPolicies(sweepPolicies()...),
			waitornot.WithBackends(tc.backends...),
			waitornot.WithSeeds(1, 2)).RunSweep(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := 2 * len(tc.backends) * len(sweepPolicies()); len(rep.Runs) != want {
			t.Fatalf("%s: %d runs, want %d", tc.name, len(rep.Runs), want)
		}
		for _, r := range rep.Runs {
			o := opts
			o.Seed, o.Backend = r.Seed, r.Backend
			for _, p := range sweepPolicies() {
				if p.Name() == r.Policy {
					o.Policy = p
				}
			}
			kind := tc.kind
			if kind == waitornot.KindTradeoff {
				kind = waitornot.KindDecentralized // the trade-off grid's single cell
			}
			solo := testutil.Run(t, o, waitornot.WithKind(kind))
			var acc, wait, included float64
			if solo.Async != nil {
				acc, wait, included = solo.Async.Headline()
			} else {
				acc, wait, included = solo.Decentralized.Headline()
			}
			if r.FinalAccuracy != acc || r.MeanWaitMs != wait || r.MeanIncluded != included {
				t.Fatalf("%s seed %d %s@%s: sweep (%v, %v, %v) != solo (%v, %v, %v)", tc.name,
					r.Seed, r.Policy, r.Backend, r.FinalAccuracy, r.MeanWaitMs, r.MeanIncluded, acc, wait, included)
			}
		}
	}
}

// TestSweepProgressStreamOrder: SweepProgress events arrive in flat
// seed-major work-list order with correct Index/Total, even when the
// replications run concurrently.
func TestSweepProgressStreamOrder(t *testing.T) {
	col := &collector{}
	runGoldenSweep(t, 8, waitornot.WithObserver(col))
	want := []string{
		"sweep-progress 1/12 seed=1 wait-all@pow",
		"sweep-progress 2/12 seed=1 first-1@pow",
		"sweep-progress 3/12 seed=1 wait-all@instant",
		"sweep-progress 4/12 seed=1 first-1@instant",
		"sweep-progress 5/12 seed=2 wait-all@pow",
		"sweep-progress 6/12 seed=2 first-1@pow",
		"sweep-progress 7/12 seed=2 wait-all@instant",
		"sweep-progress 8/12 seed=2 first-1@instant",
		"sweep-progress 9/12 seed=3 wait-all@pow",
		"sweep-progress 10/12 seed=3 first-1@pow",
		"sweep-progress 11/12 seed=3 wait-all@instant",
		"sweep-progress 12/12 seed=3 first-1@instant",
	}
	if len(col.events) != len(want) {
		t.Fatalf("got %d events: %q", len(col.events), col.events)
	}
	for i := range want {
		if col.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (full stream %q)", i, col.events[i], want[i], col.events)
		}
	}
}

// TestSweepCancellation cancels from inside the observer on the first
// SweepProgress: the pool must stop claiming replications and RunSweep
// must surface ctx.Err() with no partial report.
func TestSweepCancellation(t *testing.T) {
	opts := sweepOpts()
	opts.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := waitornot.ObserverFunc(func(ev waitornot.Event) {
		if _, ok := ev.(waitornot.SweepProgress); ok {
			cancel()
		}
	})
	rep, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(sweepPolicies()...),
		waitornot.WithSeeds(1, 2, 3),
		waitornot.WithObserver(obs)).RunSweep(ctx)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("rep=%v err=%v, want nil + context.Canceled", rep, err)
	}
}

// TestSweepSingleSeedRendersClean: a one-replication sweep is a
// degenerate distribution — the table must render `± 0.0000`, never
// NaN, per the stats package's n < 2 contract.
func TestSweepSingleSeedRendersClean(t *testing.T) {
	opts := sweepOpts()
	rep, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindDecentralized),
		waitornot.WithSeeds(5)).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 || len(rep.Cells) != 1 {
		t.Fatalf("runs=%d cells=%d, want 1/1", len(rep.Runs), len(rep.Cells))
	}
	table := rep.Table()
	if strings.Contains(table, "NaN") {
		t.Fatalf("single-sample table contains NaN:\n%s", table)
	}
	if !strings.Contains(table, "± 0.0000") {
		t.Fatalf("single-sample accuracy cell should render a zero CI:\n%s", table)
	}
	if c := rep.Cells[0]; c.Accuracy.N != 1 || c.Accuracy.CI95 != 0 || c.Accuracy.Std != 0 {
		t.Fatalf("single-sample cell summary = %+v", c.Accuracy)
	}
}

// TestSweepReplicationsExpandFromBaseSeed: WithReplications(n) with no
// explicit list sweeps n consecutive seeds from Options.Seed.
func TestSweepReplicationsExpandFromBaseSeed(t *testing.T) {
	opts := sweepOpts() // Seed: 7
	rep, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindDecentralized),
		waitornot.WithReplications(2)).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seeds) != 2 || rep.Seeds[0] != 7 || rep.Seeds[1] != 8 {
		t.Fatalf("seeds = %v, want [7 8]", rep.Seeds)
	}
	if rep.Cells[0].Accuracy.N != 2 {
		t.Fatalf("cell n = %d, want 2", rep.Cells[0].Accuracy.N)
	}
}

// TestSweepRejectsBadConfigurations: no seeds, duplicate seeds, and
// the vanilla kind must all fail fast with named errors.
func TestSweepRejectsBadConfigurations(t *testing.T) {
	ctx := context.Background()
	if _, err := waitornot.New(sweepOpts()).RunSweep(ctx); err == nil ||
		!strings.Contains(err.Error(), "WithSeeds") {
		t.Fatalf("seedless sweep: err = %v, want a hint at WithSeeds", err)
	}
	if _, err := waitornot.New(sweepOpts(), waitornot.WithSeeds(4, 4)).RunSweep(ctx); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate seeds: err = %v, want a duplicate-seed rejection", err)
	}
	if _, err := waitornot.New(sweepOpts(),
		waitornot.WithKind(waitornot.KindVanilla),
		waitornot.WithSeeds(1, 2)).RunSweep(ctx); err == nil ||
		!strings.Contains(err.Error(), "vanilla") {
		t.Fatalf("vanilla sweep: err = %v, want a kind rejection", err)
	}
}

// TestReplicatedScenarioSweeps: the registered replicated-tradeoff
// scenario declares its seed list, so Scenario.Experiment().RunSweep
// is a one-liner; explicit WithSeeds overrides it.
func TestReplicatedScenarioSweeps(t *testing.T) {
	sc, ok := waitornot.LookupScenario("replicated-tradeoff")
	if !ok {
		t.Fatal("replicated-tradeoff not registered")
	}
	if len(sc.Seeds) != 5 {
		t.Fatalf("scenario seeds = %v, want 5 of them", sc.Seeds)
	}
	sc.Options.Rounds = 1
	rep, err := sc.Experiment(
		waitornot.WithSeeds(11, 12),
		waitornot.WithFastScale()).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seeds) != 2 || rep.Seeds[0] != 11 || rep.Seeds[1] != 12 {
		t.Fatalf("override seeds = %v, want [11 12]", rep.Seeds)
	}
	if rep.Scenario != "replicated-tradeoff" {
		t.Fatalf("scenario label = %q", rep.Scenario)
	}
	if len(rep.Cells) != len(sc.Policies) {
		t.Fatalf("cells = %d, want one per policy = %d", len(rep.Cells), len(sc.Policies))
	}
}

// TestSweepTargetAccuracy: WithTargetAccuracy adds time-to-target as
// a fourth cell metric — runs carry their time-to-accuracy, cells
// summarize only the replications that reached the target, and the
// table/CSVs grow the opt-in columns — while leaving the classic
// no-target sweep's output bytes untouched (TestSweepReportGolden).
func TestSweepTargetAccuracy(t *testing.T) {
	rep := runGoldenSweep(t, 0, waitornot.WithTargetAccuracy(0.05))
	if rep.TargetAccuracy != 0.05 {
		t.Fatalf("report target = %g", rep.TargetAccuracy)
	}
	for _, run := range rep.Runs {
		if run.TimeToAccMs == nil {
			t.Fatalf("run %+v missing time-to-acc", run)
		}
		if *run.TimeToAccMs == 0 || *run.TimeToAccMs < -1 {
			t.Fatalf("run time-to-acc = %g, want -1 or positive", *run.TimeToAccMs)
		}
	}
	for _, c := range rep.Cells {
		if c.TimeToAcc == nil {
			t.Fatalf("cell %+v missing time-to-acc summary", c)
		}
		if c.TimeToAcc.N > c.Accuracy.N {
			t.Fatalf("cell reached %d of %d replications", c.TimeToAcc.N, c.Accuracy.N)
		}
		if !strings.Contains(c.Accuracy.String(), " ± ") {
			t.Fatalf("summary renders %q, want mean ± ci", c.Accuracy.String())
		}
	}
	if !strings.Contains(rep.Table(), "t to 5% acc (ms)") || !strings.Contains(rep.Table(), "reached") {
		t.Fatalf("table missing time-to-acc columns:\n%s", rep.Table())
	}
	if !strings.Contains(rep.CSV(), "tta_ms_mean") || !strings.Contains(rep.RunsCSV(), "time_to_acc_ms") {
		t.Fatal("CSV exports missing time-to-acc columns")
	}
	// An unreachable target keeps every cell renderable: N=0 summaries
	// render as zeros ("n/a" in the table), never NaN.
	never := runGoldenSweep(t, 0, waitornot.WithTargetAccuracy(1))
	if !strings.Contains(never.Table(), "n/a") {
		t.Fatalf("unreached target must render n/a:\n%s", never.Table())
	}
	if strings.Contains(never.Table(), "NaN") || strings.Contains(never.CSV(), "NaN") {
		t.Fatal("unreached target rendered NaN")
	}
	// Out-of-range targets are rejected up front.
	opts := sweepOpts()
	if _, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithSeeds(1),
		waitornot.WithTargetAccuracy(1.5)).RunSweep(context.Background()); err == nil {
		t.Fatal("accepted target accuracy 1.5")
	}
}

// TestSweepAsyncLadder: KindAsync sweeps the policy ladder
// un-barriered — every cell a deterministic free run — with
// time-to-target tracked on the virtual clock.
func TestSweepAsyncLadder(t *testing.T) {
	opts := sweepOpts()
	opts.Rounds = 2
	run := func(parallelism int) *waitornot.SweepReport {
		o := opts
		o.Parallelism = parallelism
		rep, err := waitornot.New(o,
			waitornot.WithKind(waitornot.KindAsync),
			waitornot.WithPolicies(sweepPolicies()...),
			waitornot.WithSeeds(1, 2),
			waitornot.WithTargetAccuracy(0.05)).RunSweep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq, par := run(1), run(0)
	testutil.GoldenEqual(t, "async-sweep", seq, par)
	if len(seq.Runs) != 4 || len(seq.Cells) != 2 {
		t.Fatalf("async ladder shape: %d runs, %d cells", len(seq.Runs), len(seq.Cells))
	}
	for _, c := range seq.Cells {
		if c.Accuracy.N != 2 {
			t.Fatalf("cell %q has %d samples, want 2", c.Policy, c.Accuracy.N)
		}
		if c.WaitMs.Mean <= 0 {
			t.Fatalf("cell %q mean wait %g, want positive virtual wait", c.Policy, c.WaitMs.Mean)
		}
	}
}
