// Command repro regenerates the paper's evaluation and every workload
// built on it. A run is selected one way — by registered scenario:
//
//	repro -scenarios                    list registered scenarios
//	repro -scenario vanilla-baseline    Table I + Figure 3 (Vanilla FL)
//	repro -scenario paper-repro         Tables II-IV + Figure 4 (blockchain FL)
//	repro -scenario stragglers          the wait-or-not speed/precision study
//	repro -scenario async-free-run      un-barriered async aggregation
//	repro -scenario sharded-hierarchy   the sharded topology sweep
//	repro -netperf                      §II-A2 throughput premises + the wait, term by term
//
// and executes through Experiment.Run / RunSweep / RunCampaign,
// streaming per-round progress. Flags the user sets explicitly (-model,
// -rounds, -seed, -backend, -client-fraction, -time-budget-ms,
// -parallel) override the scenario's registered configuration; one the
// scenario's kind does not read is the library's error (exit 2).
//
// Replication: a scenario that declares seeds (sharded-hierarchy), or
// any scenario run with -seeds 1,2,3 / -replications N, is a sweep —
// every cell is replayed once per seed and the tables report mean ±
// 95% CI instead of single-seed point estimates. -target-acc adds
// time-to-that-accuracy as a cell metric.
//
// Campaigns: -campaign-dir DIR makes a sweep durable — every completed
// cell is fsync'd to DIR/results.jsonl as it lands, so a run killed at
// any instant resumes with -resume, recomputing only the missing cells
// and printing tables byte-identical to an uninterrupted run (at any
// -parallel). -campaign-status prints a campaign's progress and the
// partial mean ± CI table over the cells landed so far, even while
// another process is still appending.
//
// Add -fast for a reduced (smoke-test) scale, and -csv to emit
// machine-readable grids as well. -parallel N bounds the engine's
// worker pools (0 = all cores, 1 = sequential); every setting produces
// bit-identical tables. Runs cancel cleanly on interrupt (Ctrl-C): the
// engine stops at the next round boundary.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"waitornot"
)

// config is the parsed command line. set records which flags the user
// passed explicitly: only those override a scenario's registered
// configuration.
type config struct {
	scenario, backend, model, campaignDir string
	list, listBackends, netperf, status   bool
	fast, csv, quiet, resume              bool
	rounds, parallel, replications        int
	seed                                  uint64
	seeds                                 []uint64
	timeBudget, targetAcc, clientFrac     float64
	set                                   map[string]bool
}

func main() {
	var c config
	flag.StringVar(&c.scenario, "scenario", "", "run a registered scenario by name (see -scenarios)")
	flag.BoolVar(&c.list, "scenarios", false, "list registered scenarios and exit")
	flag.BoolVar(&c.listBackends, "backends", false, "list registered consensus backends and exit")
	flag.BoolVar(&c.netperf, "netperf", false, "print the network premises (throughput vs peers and block gas) and consensus-ladder's wait split into compute, propagate, commit and idle terms (2-round -fast runs)")
	flag.StringVar(&c.backend, "backend", "", "consensus backend override (see -backends)")
	flag.StringVar(&c.model, "model", "", "model override: simple|effnet")
	flag.IntVar(&c.rounds, "rounds", 10, "communication rounds override")
	flag.Uint64Var(&c.seed, "seed", 1, "experiment seed")
	flag.BoolVar(&c.fast, "fast", false, "reduced scale for smoke testing")
	flag.BoolVar(&c.csv, "csv", false, "also print CSV grids")
	flag.IntVar(&c.parallel, "parallel", 0, "worker pool size (0 = all cores, 1 = sequential); results are bit-identical at any setting")
	flag.BoolVar(&c.quiet, "quiet", false, "suppress the streamed progress events")
	seeds := flag.String("seeds", "", "comma-separated seed list: replicate per seed and report mean ± 95% CI (sweep mode)")
	flag.IntVar(&c.replications, "replications", 0, "replicate over N consecutive seeds from -seed (sweep mode; ignored when -seeds is set)")
	flag.Float64Var(&c.timeBudget, "time-budget-ms", 0, "virtual-time horizon for an async scenario (0 = run until every peer finishes its rounds)")
	flag.Float64Var(&c.targetAcc, "target-acc", 0, "in sweep mode, also sweep time-to-this-accuracy per cell")
	flag.Float64Var(&c.clientFrac, "client-fraction", 0, "train only this fraction of clients per round, in (0,1] (cross-device subsampling)")
	flag.StringVar(&c.campaignDir, "campaign-dir", "", "persist the sweep as a durable campaign in this directory (fsync'd JSONL per cell; resumable)")
	flag.BoolVar(&c.resume, "resume", false, "resume the campaign in -campaign-dir, recomputing only the cells missing from its log")
	flag.BoolVar(&c.status, "campaign-status", false, "print the campaign in -campaign-dir (progress + partial mean ± CI table) and exit")
	flag.Parse()

	c.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	var err error
	if c.seeds, err = parseSeeds(*seeds); err == nil {
		err = c.validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case c.list:
		fmt.Println("registered scenarios:")
		for _, s := range waitornot.Scenarios() {
			fmt.Printf("  %-19s %-15s %s\n", s.Name, "("+s.Kind.String()+")", s.Description)
		}
	case c.listBackends:
		fmt.Println("registered consensus backends:")
		for _, b := range waitornot.Backends() {
			fmt.Printf("  %-10s %s\n", b.Name, b.Description)
		}
	case c.status:
		st, err := waitornot.LoadCampaign(c.campaignDir)
		if err != nil {
			fatal(err)
		}
		printCampaignStatus(st)
	case c.netperf:
		if err := printNetperf(ctx, os.Stdout, c.seed); err != nil {
			exitIfCancelled(err)
			fatal(err)
		}
	default:
		runScenario(ctx, c)
	}
}

// validate checks the flag combination up front, so a bad command line
// costs one actionable line (exit 2) instead of a deep-stack error from
// whatever layer trips first. The library checks the rest: the run,
// built as runScenario builds it, is resolved on a cancelled context.
func (c config) validate() error {
	selectors := 0
	for _, on := range []bool{c.scenario != "", c.list, c.listBackends, c.netperf, c.status} {
		if on {
			selectors++
		}
	}
	switch {
	case selectors != 1:
		return errors.New("pick exactly one of -scenario NAME, -scenarios, -backends, -netperf, -campaign-status")
	case c.set["rounds"] && c.rounds < 1:
		return fmt.Errorf("-rounds %d: want at least 1 round (leave it unset for the scenario's own)", c.rounds)
	case c.replications < 0:
		return fmt.Errorf("-replications %d: want a count of consecutive seeds >= 1 (0, the default, runs no sweep)", c.replications)
	case (c.resume || c.status) && c.campaignDir == "":
		return errors.New("-resume and -campaign-status act on a campaign; say which one with -campaign-dir")
	case c.status && (c.resume || c.sweepFlags()):
		return errors.New("-campaign-status only inspects, reading everything from the campaign directory; drop -resume/-seeds/-replications")
	case c.scenario == "":
		return nil
	}

	sc, ok := waitornot.LookupScenario(c.scenario)
	sweepMode := c.sweepFlags() || len(sc.Seeds) > 0
	switch {
	case !ok:
		return fmt.Errorf("unknown -scenario %q (registered: %s)", c.scenario, strings.Join(waitornot.ScenarioNames(), ", "))
	case c.set["model"] && c.model != "simple" && c.model != "effnet":
		return fmt.Errorf("unknown -model %q (want simple or effnet)", c.model)
	case c.set["target-acc"] && (!(c.targetAcc >= 0 && c.targetAcc <= 1) || !sweepMode):
		return fmt.Errorf("-target-acc is a sweep metric in [0, 1]; scenario %q needs -seeds or -replications for it", sc.Name)
	case c.csv && !sweepMode && sc.Kind == waitornot.KindDecentralized:
		return fmt.Errorf("-csv has nothing to print for a single %s run: its report has no CSV grid; add -replications 1 for the sweep CSVs of scenario %q", sc.Kind, sc.Name)
	case c.campaignDir != "" && !sweepMode:
		return fmt.Errorf("a campaign persists a replication sweep; scenario %q declares no seeds — add -seeds or -replications", sc.Name)
	case c.campaignDir != "" && c.resume != waitornot.CampaignExists(c.campaignDir):
		// Starting over an existing campaign (or resuming a missing one)
		// is almost certainly a typo in one of the two flags; insist the
		// intent is spelled out before any work lands in the directory.
		if c.resume {
			return fmt.Errorf("%s holds no campaign to -resume; drop -resume to start one there", c.campaignDir)
		}
		return fmt.Errorf("%s already holds a campaign; add -resume to continue it, or point -campaign-dir at a fresh directory", c.campaignDir)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, exp := c.experiment()
	if _, _, err := c.run(cancelled, exp, sweepMode); !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// sweepFlags reports whether the user asked for a replication sweep.
func (c config) sweepFlags() bool { return len(c.seeds) > 0 || c.replications > 0 }

// experiment builds the run the command line describes: the registered
// scenario, each flag the user set overriding it (a knob is a field).
func (c config) experiment() (waitornot.Scenario, *waitornot.Experiment) {
	sc, _ := waitornot.LookupScenario(c.scenario)
	if c.set["model"] {
		sc.Options.Model = map[string]waitornot.Model{"simple": waitornot.SimpleNN, "effnet": waitornot.EffNetB0Sim}[c.model]
	}
	if c.set["rounds"] {
		sc.Options.Rounds = c.rounds
	}
	if c.set["client-fraction"] {
		sc.Options.ClientFraction = c.clientFrac
	}
	if c.set["time-budget-ms"] {
		sc.Options.TimeBudgetMs = c.timeBudget
	}
	var overrides []waitornot.Option
	if c.set["seed"] {
		overrides = append(overrides, waitornot.WithSeed(c.seed))
	}
	if c.set["parallel"] {
		overrides = append(overrides, waitornot.WithParallelism(c.parallel))
	}
	if c.set["backend"] {
		// An explicit -backend wins over a scenario's backend ladder
		// too: clear the ladder so the sweep runs on the requested
		// substrate alone.
		overrides = append(overrides, waitornot.WithBackend(c.backend), waitornot.WithBackends())
	}
	if c.replications > 0 {
		overrides = append(overrides, waitornot.WithSeeds(), waitornot.WithReplications(c.replications))
	}
	if len(c.seeds) > 0 {
		overrides = append(overrides, waitornot.WithSeeds(c.seeds...))
	}
	if c.targetAcc > 0 {
		overrides = append(overrides, waitornot.WithTargetAccuracy(c.targetAcc))
	}
	if c.fast {
		overrides = append(overrides, waitornot.WithFastScale())
	}
	if !c.quiet {
		overrides = append(overrides, waitornot.WithObserverFunc(printEvent))
	}
	return sc, sc.Experiment(overrides...)
}

// run executes exp as a single run or, when sweep is set, a replication
// sweep (a durable campaign when -campaign-dir names one).
func (c config) run(ctx context.Context, exp *waitornot.Experiment, sweep bool) (*waitornot.Results, *waitornot.SweepReport, error) {
	switch {
	case !sweep:
		res, err := exp.Run(ctx)
		return res, nil, err
	case c.campaignDir != "":
		rep, err := exp.RunCampaign(ctx, c.campaignDir)
		return nil, rep, err
	default:
		rep, err := exp.RunSweep(ctx)
		return nil, rep, err
	}
}

// runScenario executes the registered scenario through the Experiment
// API — streaming its typed progress events — and prints the report
// matching the scenario's kind. A scenario that declares Seeds (or an
// explicit -seeds/-replications flag) runs as a replication sweep.
func runScenario(ctx context.Context, c config) {
	sc, exp := c.experiment()
	start := time.Now()
	fmt.Printf("==> scenario %s — %s\n", sc.Name, sc.Description)
	res, rep, err := c.run(ctx, exp, c.sweepFlags() || len(sc.Seeds) > 0)
	switch {
	case err != nil:
		exitIfCancelled(err)
		fatal(err)
	case rep != nil:
		printSweepReport(rep, c.csv)
	default:
		printResults(res, cmp.Or(sc.Options.Model, waitornot.SimpleNN).String(), c.csv)
	}
	fmt.Printf("<== scenario %s (%v)\n", sc.Name, time.Since(start).Round(time.Second))
}

// printSweepReport prints a sweep's mean ± CI table — a trade-off run's
// one-seed sweep included — plus the cell and raw-run CSVs when csv is
// set.
func printSweepReport(rep *waitornot.SweepReport, csv bool) {
	fmt.Println(rep.Table())
	if csv {
		fmt.Println(rep.CSV())
		fmt.Println(rep.RunsCSV())
	}
}

// printNetperf prints the simulated network premises — the §II-A2
// throughput sweeps, which train nothing — and waitTerms' table.
func printNetperf(ctx context.Context, w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "throughput vs co-located peers (shared-host model, §II-A2 / VFChain premise):")
	pts, err := waitornot.ThroughputVsPeers([]int{4, 8, 16, 32, 64}, seed)
	if err != nil {
		return err
	}
	for _, pt := range pts {
		fmt.Fprintf(w, "  %-10s %8.1f tx/s   mean commit latency %9.1f ms\n",
			pt.Label, pt.CommittedPerSec, pt.MeanLatencyMs)
	}
	fmt.Fprintln(w, "\nthroughput vs block gas limit (model-sized txs, refs [11,12]):")
	// A SimpleNN submission is ~247 KB ≈ 4M calldata gas.
	txGas := uint64(4_000_000)
	limits := []uint64{4_000_000, 8_000_000, 16_000_000, 64_000_000, 256_000_000}
	if pts, err = waitornot.ThroughputVsBlockGas(limits, txGas, seed); err != nil {
		return err
	}
	for _, pt := range pts {
		fmt.Fprintf(w, "  %-16s %8.1f tx/s   mean commit latency %9.1f ms\n",
			pt.Label, pt.CommittedPerSec, pt.MeanLatencyMs)
	}
	_, err = waitTerms(ctx, w, seed)
	return err
}

// waitTermsRounds is the round count of waitTerms' runs: consensus-ladder
// draws no compute or network distribution, so every round's terms are
// the same.
const waitTermsRounds = 2

// waitTermRow is one (backend, policy) cell of consensus-ladder: the
// means over every (peer, round) of RoundInfo's ComputeMs, PropagateMs,
// CommitMs, IdleMs and WaitMs. Means, not medians, because they add:
// the four terms sum to the wait, which is the sweep's for the cell.
type waitTermRow struct {
	Backend, Policy string
	Ms              [5]float64
}

// waitTerms runs every cell of consensus-ladder alone, as a
// decentralized run at -fast scale and seed without combination tables,
// and writes the table of its rows to w.
func waitTerms(ctx context.Context, w io.Writer, seed uint64) ([]waitTermRow, error) {
	fmt.Fprintf(w, "\nwait terms of consensus-ladder (-fast, %d rounds; mean ms over every peer and round):\n", waitTermsRounds)
	fmt.Fprintf(w, "  %-8s %-10s %10s %10s %10s %10s %10s\n", "backend", "policy", "compute", "propagate", "commit", "idle", "wait")
	sc, _ := waitornot.LookupScenario("consensus-ladder")
	var rows []waitTermRow
	for _, backend := range sc.Backends {
		for _, policy := range sc.Policies {
			cell := waitornot.Scenario{Kind: waitornot.KindDecentralized, Options: sc.Options}
			cell.Options.Backend, cell.Options.Policy = backend, policy
			cell.Options.Rounds, cell.Options.SkipComboTables = waitTermsRounds, true
			res, err := cell.Experiment(waitornot.WithFastScale(), waitornot.WithSeed(seed)).Run(ctx)
			if err != nil {
				return nil, err
			}
			row, n := waitTermRow{Backend: backend, Policy: policy.Name()}, 0.0
			for _, peer := range res.Decentralized.Rounds {
				for _, ri := range peer {
					for k, ms := range [5]float64{ri.ComputeMs, ri.PropagateMs, ri.CommitMs, ri.IdleMs, ri.WaitMs} {
						row.Ms[k] += ms
					}
					n++
				}
			}
			fmt.Fprintf(w, "  %-8s %-10s", backend, row.Policy)
			for k := range row.Ms {
				row.Ms[k] /= n
				fmt.Fprintf(w, " %10.1f", row.Ms[k])
			}
			fmt.Fprintln(w)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// printCampaignStatus renders a campaign directory's progress and the
// partial mean ± CI table over whatever cells have landed so far.
func printCampaignStatus(st *waitornot.CampaignState) {
	workload := st.Kind
	if st.Partial.Scenario != "" {
		workload += "  (scenario " + st.Partial.Scenario + ")"
	}
	pct := 0.0
	if st.Total > 0 {
		pct = 100 * float64(st.Done) / float64(st.Total)
	}
	fmt.Printf("campaign %s\n", st.Dir)
	fmt.Printf("  workload     %s\n", workload)
	fmt.Printf("  fingerprint  %.12s…\n", st.Fingerprint)
	fmt.Printf("  seeds        %v\n", st.Partial.Seeds)
	fmt.Printf("  progress     %d/%d cells (%.0f%%)\n\n", st.Done, st.Total, pct)
	if st.Done == 0 {
		fmt.Println("no cells landed yet; partial tables appear after the first record")
		return
	}
	fmt.Printf("partial results over the %d landed cells:\n\n", st.Done)
	fmt.Println(st.Partial.Table())
}

// parseSeeds parses the -seeds flag: a comma-separated uint64 list.
func parseSeeds(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not a seed (want e.g. -seeds 1,2,3)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// exitIfCancelled turns a context cancellation (Ctrl-C) into the
// conventional interrupt exit code.
func exitIfCancelled(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "repro: run cancelled at the round boundary")
		os.Exit(130)
	}
}

// printResults renders whichever report the experiment kind produced,
// followed by its CSV grid (for the kinds that have one) when csv is
// set.
func printResults(res *waitornot.Results, model string, csv bool) {
	switch {
	case res.Vanilla != nil:
		fmt.Println(res.Vanilla.TableI(model))
		fmt.Printf("consider-arm adopted combos per round: %v\n\n", res.Vanilla.ConsiderCombos)
		fmt.Println(res.Vanilla.Figure3(model))
		if csv {
			fmt.Println(res.Vanilla.CSV())
		}
	case res.Decentralized != nil:
		rep := res.Decentralized
		if len(rep.ComboLabels) > 0 && len(rep.ComboLabels[0]) > 0 {
			for p := range rep.PeerNames {
				fmt.Println(rep.PeerTable(p, model))
				fmt.Println()
			}
			fmt.Println(rep.Figure4(model))
		} else {
			// Combo tables are off (-client-fraction, or SkipComboTables
			// runs); the headline reduction is the readable summary.
			acc, wait, included := rep.Headline()
			fmt.Printf("combo tables skipped; headline (%s): final-acc %.4f, mean wait %.1f ms, mean included %.2f, %d peers trained\n\n",
				model, acc, wait, included, len(rep.PeerNames))
		}
		fmt.Printf("on-chain footprint: %s\n\n", footprint(rep.Chain))
	case res.Tradeoff != nil:
		printSweepReport(res.Tradeoff, csv)
	case res.Async != nil:
		rep := res.Async
		fmt.Println(rep.Table())
		fmt.Println()
		fmt.Println(rep.TimeToAccuracyTable(0.3, 0.5, 0.7, 0.8, 0.9))
		fmt.Println(rep.Summary())
		fmt.Printf("on-chain footprint: %s\n\n", footprint(rep.Chain))
		if csv {
			fmt.Println(rep.CSV())
		}
	case res.Sharded != nil:
		rep := res.Sharded
		fmt.Println(rep.Table())
		fmt.Println()
		fmt.Println(rep.MergeTable())
		fmt.Println(rep.Summary())
		for _, s := range rep.Shards {
			fmt.Printf("shard %d ledger (%s): %s\n", s.Index, s.Backend, footprint(s.Chain))
		}
		fmt.Println()
		if csv {
			fmt.Println(rep.CSV())
		}
	}
}

// footprint renders one ledger's on-chain footprint.
func footprint(c waitornot.ChainSummary) string {
	return fmt.Sprintf("%d blocks, %d txs (%d submissions, %d decisions), %.2f MGas, %.2f MB",
		c.Blocks, c.Txs, c.Submissions, c.Decisions, float64(c.GasUsed)/1e6, float64(c.Bytes)/1e6)
}

// printEvent streams one progress line per experiment event.
func printEvent(ev waitornot.Event) {
	arm := func(a string) string {
		if a == "" {
			return ""
		}
		return " [" + a + "]"
	}
	switch e := ev.(type) {
	case waitornot.RoundStart:
		fmt.Printf("-- round %d%s\n", e.Round, arm(e.Arm))
	case waitornot.PeerTrained:
		fmt.Printf("   trained    %s (%d samples)\n", e.Peer, e.Samples)
	case waitornot.ModelSubmitted:
		fmt.Printf("   submitted  %s (%.1f KB on-chain)\n", e.Peer, float64(e.Bytes)/1024)
	case waitornot.BlockCommitted:
		fmt.Printf("   committed  block %d via %s (%d txs, %.2f MGas, ~%.0f ms commit latency)\n",
			e.Height, e.Backend, e.Txs, float64(e.GasUsed)/1e6, e.LatencyMs)
	case waitornot.AggregationDecided:
		who := e.Peer
		if who == "" {
			who = "aggregator"
		}
		fmt.Printf("   aggregated %s: %d models in %.1f ms -> {%s} acc %.4f\n",
			who, e.Included, e.WaitMs, e.ChosenCombo, e.Accuracy)
	case waitornot.PeerAggregated:
		fmt.Printf("   merged     %s r%d @ %.1f ms: %d models (staleness %.1f ms) acc %.4f\n",
			e.Peer, e.Round, e.VirtualMs, e.Included, e.MeanStalenessMs, e.Accuracy)
	case waitornot.RoundEnd:
		fmt.Printf("-- round %d done%s\n", e.Round, arm(e.Arm))
	case waitornot.ShardRoundEnd:
		fmt.Printf("   shard %d    r%d @ %.0f ms [%s]: wait %.1f ms, %.2f models\n",
			e.Shard, e.Round, e.VirtualMs, e.Policy, e.MaxWaitMs, e.MeanIncluded)
	case waitornot.ShardModelCommitted:
		fmt.Printf("   published  shard %d epoch %d (r%d, %d samples): acc %.4f\n",
			e.Shard, e.Epoch, e.Round, e.Samples, e.Accuracy)
	case waitornot.GlobalMerge:
		who := "barrier"
		if e.Shard >= 0 {
			who = fmt.Sprintf("shard %d", e.Shard)
		}
		fmt.Printf("   merged     epoch %d (%s, %s): %d shard models -> acc %.4f at wait %.1f ms\n",
			e.Epoch, e.Mode, who, e.Included, e.Accuracy, e.WaitMs)
	case waitornot.SweepProgress:
		cell := e.Policy
		if e.Backend != "" {
			cell += "@" + e.Backend
		}
		restored := ""
		if e.Restored {
			restored = " (restored)"
		}
		fmt.Printf("   replication %3d/%d  seed %-4d %-26s acc %.4f  wait %8.1f ms  models %.2f%s\n",
			e.Index+1, e.Total, e.Seed, cell, e.FinalAccuracy, e.MeanWaitMs, e.MeanIncluded, restored)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
