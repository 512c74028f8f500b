// CLI helper tests: flag parsing and the rendering paths the binary
// owns — seed-list parsing, the per-kind report printers, and the
// streaming event formatter — exercised against a real tiny run so the
// output stays wired to the library's actual types.
package main

import (
	"context"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"waitornot"
	"waitornot/internal/testutil"
)

// TestValidate has one row per flag rule (both arms where a rule has
// two), plus the accepted shapes around them. Rows past the flags only
// the command line reads carry the library's own error: validate
// resolves the run the flags describe.
func TestValidate(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	held := t.TempDir()
	exp := waitornot.New(tinyShardedOpts(), waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(waitornot.Policy{}), waitornot.WithSeeds(7))
	if _, err := exp.RunCampaign(context.Background(), held); err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir() + "/fresh"

	cases := []struct {
		name    string
		c       config
		wantErr string // substring; "" = accepted
	}{
		{"no selector", config{}, "pick exactly one"},
		{"two selectors", config{scenario: "paper-repro", netperf: true}, "pick exactly one"},
		{"resume without dir", config{scenario: "stragglers", seeds: []uint64{1, 2}, resume: true}, "say which one with -campaign-dir"},
		{"status without dir", config{status: true}, "say which one with -campaign-dir"},
		{"status with resume", config{status: true, campaignDir: held, resume: true}, "only inspects"},
		{"status with seeds", config{status: true, campaignDir: held, seeds: []uint64{1}}, "only inspects"},
		{"unknown scenario", config{scenario: "no-such"}, `unknown -scenario "no-such"`},
		{"bad model", config{scenario: "paper-repro", model: "both", set: set("model")}, `unknown -model "both"`},
		{"client fraction out of range", config{scenario: "paper-repro", clientFrac: 1.5, set: set("client-fraction")}, "outside (0, 1]"},
		{"client fraction on the vanilla baseline", config{scenario: "vanilla-baseline", clientFrac: 0.5, set: set("client-fraction")}, "Options.ClientFraction is an error on vanilla experiments"},
		{"client fraction on a sharded hierarchy", config{scenario: "sharded-async-merge", clientFrac: 0.5, set: set("client-fraction")}, "Options.ClientFraction is an error on sharded experiments"},
		{"negative time budget", config{scenario: "async-free-run", timeBudget: -1, set: set("time-budget-ms")}, "negative time budget -1"},
		{"time budget on a barriered scenario", config{scenario: "paper-repro", timeBudget: 500, set: set("time-budget-ms")}, "Options.TimeBudgetMs is an error on decentralized experiments"},
		{"backend on the vanilla baseline", config{scenario: "vanilla-baseline", backend: "poa", set: set("backend")}, "Options.Backend is an error on vanilla experiments"},
		{"zero rounds", config{scenario: "vanilla-baseline", rounds: 0, set: set("rounds")}, "-rounds 0"},
		{"negative replications", config{scenario: "stragglers", replications: -1}, "-replications -1"},
		{"sweeping the vanilla baseline", config{scenario: "vanilla-baseline", replications: 2}, "vanilla experiments cannot be swept"},
		{"target-acc out of range", config{scenario: "sharded-hierarchy", targetAcc: 1.2, set: set("target-acc")}, "-target-acc"},
		{"target-acc NaN", config{scenario: "sharded-hierarchy", targetAcc: math.NaN(), set: set("target-acc")}, "-target-acc"},
		{"target-acc without a sweep", config{scenario: "paper-repro", targetAcc: 0.5, set: set("target-acc")}, "needs -seeds or -replications"},
		{"csv on a single run with no CSV grid", config{scenario: "paper-repro", csv: true}, "-replications 1"},
		{"campaign without a sweep", config{scenario: "paper-repro", campaignDir: fresh}, "declares no seeds"},
		{"existing campaign without resume", config{scenario: "sharded-hierarchy", campaignDir: held}, "add -resume"},
		{"resume with no campaign", config{scenario: "sharded-hierarchy", campaignDir: fresh, resume: true}, "holds no campaign"},

		{"list", config{list: true}, ""},
		{"netperf", config{netperf: true}, ""},
		{"status", config{status: true, campaignDir: held}, ""},
		{"plain scenario", config{scenario: "paper-repro", model: "effnet", set: set("model")}, ""},
		{"csv on a single trade-off run", config{scenario: "stragglers", csv: true}, ""},
		{"async with budget", config{scenario: "hetero-compute", timeBudget: 900, set: set("time-budget-ms")}, ""},
		{"seeded scenario with target", config{scenario: "sharded-hierarchy", targetAcc: 0.5, set: set("target-acc")}, ""},
		{"fresh campaign", config{scenario: "paper-repro", seeds: []uint64{1, 2}, campaignDir: fresh}, ""},
		{"resumed campaign", config{scenario: "sharded-hierarchy", campaignDir: held, resume: true}, ""},
	}
	for _, tc := range cases {
		err := tc.c.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	if got, err := parseSeeds(""); err != nil || got != nil {
		t.Fatalf("empty seeds = %v, %v", got, err)
	}
	got, err := parseSeeds("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("parseSeeds = %v, %v", got, err)
	}
	if _, err := parseSeeds("1,x"); err == nil {
		t.Fatal("expected an error for a non-numeric seed")
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// tinyShardedOpts is the smallest sharded run that still exercises the
// whole printing surface: 2 shards, straggler, commit latency.
func tinyShardedOpts() waitornot.Options {
	return waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         4,
		Rounds:          1,
		Seed:            7,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		LearningRate:    0.01,
		SkipComboTables: true,
		CommitLatency:   true,
		StragglerFactor: []float64{1, 1, 1, 3},
	}
}

// TestPrintShardedRun drives the sharded experiment through the CLI's
// own streaming and report printers and checks the headline lines land.
func TestPrintShardedRun(t *testing.T) {
	var res *waitornot.Results
	stream := captureStdout(t, func() {
		var err error
		res, err = waitornot.New(tinyShardedOpts(), waitornot.WithKind(waitornot.KindSharded),
			waitornot.WithObserverFunc(printEvent)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"shard 0", "published  shard", "merged     epoch 1"} {
		if !strings.Contains(stream, want) {
			t.Fatalf("event stream missing %q:\n%s", want, stream)
		}
	}
	out := captureStdout(t, func() { printResults(res, "simple", true) })
	for _, want := range []string{"Sharded hierarchy", "Cross-shard merges", "sharded hierarchy: 2 shards", "shard 0 ledger", "shard 1 ledger",
		strings.SplitN(res.Sharded.CSV(), "\n", 2)[0]} {
		if !strings.Contains(out, want) {
			t.Fatalf("sharded report output missing %q:\n%s", want, out)
		}
	}
}

// TestPrintDecentralizedRun covers the flat printer and the per-round
// event skeleton the sharded path replaced.
func TestPrintDecentralizedRun(t *testing.T) {
	opts := tinyShardedOpts()
	opts.Clients = 3
	opts.StragglerFactor = nil
	var res *waitornot.Results
	stream := captureStdout(t, func() {
		var err error
		res, err = waitornot.New(opts, waitornot.WithObserverFunc(printEvent)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"-- round 1", "trained    A", "committed  block", "aggregated"} {
		if !strings.Contains(stream, want) {
			t.Fatalf("event stream missing %q:\n%s", want, stream)
		}
	}
	out := captureStdout(t, func() { printResults(res, "simple", true) })
	if !strings.Contains(out, "on-chain footprint") {
		t.Fatalf("decentralized report output missing chain footprint:\n%s", out)
	}
}

// TestPrintAsyncRun covers the async printer: schedule, time-to-target
// table, summary and footprint lines, and the timeline CSV.
func TestPrintAsyncRun(t *testing.T) {
	opts := tinyShardedOpts()
	opts.Clients = 3
	opts.StragglerFactor = []float64{1, 1, 3}
	res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindAsync)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { printResults(res, "simple", true) })
	for _, want := range []string{"Asynchronous free run", "Time to target accuracy", "async horizon",
		"on-chain footprint: " + footprint(res.Async.Chain) + "\n\n", "at_ms,mean_accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("async report output missing %q:\n%s", want, out)
		}
	}
}

// TestFootprint pins the one chain-footprint line every printer uses.
func TestFootprint(t *testing.T) {
	got := footprint(waitornot.ChainSummary{Blocks: 4, Txs: 9, Submissions: 3, Decisions: 3, GasUsed: 1234567, Bytes: 2500000})
	if want := "4 blocks, 9 txs (3 submissions, 3 decisions), 1.23 MGas, 2.50 MB"; got != want {
		t.Fatalf("footprint = %q, want %q", got, want)
	}
}

// TestPrintCampaign drives a tiny durable campaign through the CLI's
// own surfaces: the SweepProgress stream line, the campaign path of
// run and the sweep printer, and the -campaign-status printer over the
// finished directory.
func TestPrintCampaign(t *testing.T) {
	o := tinyShardedOpts()
	o.Clients = 3
	o.StragglerFactor = []float64{1, 1, 3}
	exp := waitornot.New(o,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(waitornot.Policy{}, waitornot.Policy{K: 1}),
		waitornot.WithSeeds(7, 8),
		waitornot.WithObserverFunc(printEvent))
	dir := t.TempDir() + "/campaign"
	printSweep := func() {
		_, rep, err := config{campaignDir: dir}.run(context.Background(), exp, true)
		if err != nil {
			t.Fatal(err)
		}
		printSweepReport(rep, false)
	}
	stream := captureStdout(t, printSweep)
	for _, want := range []string{"replication", "4/4", "mean ± 95% CI"} {
		if !strings.Contains(stream, want) {
			t.Fatalf("campaign output missing %q:\n%s", want, stream)
		}
	}
	if strings.Contains(stream, "(restored)") {
		t.Fatalf("fresh campaign streamed a restored cell:\n%s", stream)
	}

	st, err := waitornot.LoadCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { printCampaignStatus(st) })
	for _, want := range []string{"progress     4/4 cells (100%)", "fingerprint", "partial results over the 4 landed cells"} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}

	// -resume over the finished directory: pure restore, and the
	// streamed lines say so.
	stream = captureStdout(t, printSweep)
	for _, want := range []string{"(restored)", "4/4"} {
		if !strings.Contains(stream, want) {
			t.Fatalf("resume output missing %q:\n%s", want, stream)
		}
	}
}

// TestPrintEventFormats drives every branch of the streaming formatter
// directly: each event type renders its one-line form.
func TestPrintEventFormats(t *testing.T) {
	cases := []struct {
		ev   waitornot.Event
		want string
	}{
		{waitornot.RoundStart{Round: 1, Arm: "consider"}, "-- round 1 [consider]"},
		{waitornot.PeerTrained{Peer: "A", Samples: 60}, "trained    A (60 samples)"},
		{waitornot.ModelSubmitted{Peer: "B", Bytes: 2048}, "submitted  B (2.0 KB on-chain)"},
		{waitornot.BlockCommitted{Height: 3, Backend: "pow", Txs: 2}, "committed  block 3 via pow"},
		{waitornot.AggregationDecided{Included: 2, ChosenCombo: "AB"}, "aggregated aggregator: 2 models"},
		{waitornot.PeerAggregated{Peer: "C", Round: 2, Included: 2}, "merged     C r2"},
		{waitornot.RoundEnd{Round: 1}, "-- round 1 done"},
		{waitornot.ShardRoundEnd{Shard: 1, Round: 2, Policy: "wait-all"}, "shard 1"},
		{waitornot.ShardModelCommitted{Shard: 0, Epoch: 1}, "published  shard 0 epoch 1"},
		{waitornot.GlobalMerge{Epoch: 1, Mode: "sync", Shard: -1}, "merged     epoch 1 (sync, barrier)"},
		{waitornot.GlobalMerge{Epoch: 2, Mode: "async", Shard: 1}, "merged     epoch 2 (async, shard 1)"},
		{waitornot.SweepProgress{Index: 0, Total: 4, Seed: 1, Policy: "wait-all", Backend: "pow"}, "replication   1/4  seed 1    wait-all@pow"},
		{waitornot.SweepProgress{Done: 2, Total: 4, Index: 1, Seed: 1, Policy: "first-1"}, "replication   2/4  seed 1    first-1"},
		{waitornot.SweepProgress{Done: 1, Total: 4, Restored: true, Policy: "wait-all"}, "(restored)"},
	}
	for _, tc := range cases {
		out := captureStdout(t, func() { printEvent(tc.ev) })
		if !strings.Contains(out, tc.want) {
			t.Fatalf("printEvent(%T) = %q, want substring %q", tc.ev, out, tc.want)
		}
	}
}

// TestPrintCampaignStatusEmpty: a campaign with nothing landed prints
// the progress header and says so instead of an empty table.
func TestPrintCampaignStatusEmpty(t *testing.T) {
	st := &waitornot.CampaignState{Dir: "/tmp/x", Kind: "trade-off study", Fingerprint: strings.Repeat("a", 64), Total: 12,
		Partial: &waitornot.SweepReport{Scenario: "consensus-ladder", Seeds: []uint64{1, 2, 3}}}
	out := captureStdout(t, func() { printCampaignStatus(st) })
	for _, want := range []string{"progress     0/12 cells (0%)", "no cells landed yet", "scenario consensus-ladder"} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty status missing %q:\n%s", want, out)
		}
	}
}

// TestWaitTermsGolden pins -netperf's wait-terms table at seed 1, and
// holds each cell to the scenario's sweep at that seed: its mean wait
// is the replication's MeanWaitMs exactly (a replication is a
// standalone run), and its four term means sum to that wait. One seed
// suffices: consensus-ladder draws no compute or network distribution,
// so every term is a function of the sizes, not of the seed.
func TestWaitTermsGolden(t *testing.T) {
	ctx := context.Background()
	sc, _ := waitornot.LookupScenario("consensus-ladder")
	sc.Options.Rounds = waitTermsRounds
	var b strings.Builder
	b.WriteString("seed 1")
	rows, err := waitTerms(ctx, &b, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Experiment(waitornot.WithFastScale(), waitornot.WithSeeds(1)).RunSweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(rows) {
		t.Fatalf("%d table rows, %d sweep runs", len(rows), len(rep.Runs))
	}
	for i, run := range rep.Runs {
		r, wait := rows[i], rows[i].Ms[4]
		sum := r.Ms[0] + r.Ms[1] + r.Ms[2] + r.Ms[3]
		if run.Backend != r.Backend || run.Policy != r.Policy || run.MeanWaitMs != wait || math.Abs(sum-wait) > 1e-9*wait {
			t.Fatalf("row %+v (terms sum to %g), sweep run %s %s waits %g", r, sum, run.Backend, run.Policy, run.MeanWaitMs)
		}
	}
	testutil.GoldenFile(t, "testdata/wait_terms.golden", []byte(b.String()))
}
