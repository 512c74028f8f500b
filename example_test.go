package waitornot_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"waitornot"
)

// Example runs a small fully coupled blockchain-FL experiment: three
// peers train a SimpleNN, share models over the PoW chain, and each
// personalizes its own aggregation. It prints each peer's combination
// table (the paper's Tables II–IV), each peer's final-round choice and
// the chain footprint.
func Example() {
	opts := waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        3,
		Rounds:         3,
		Seed:           42,
		TrainPerClient: 600, // small, so the example runs in seconds
		SelectionSize:  150,
		TestPerClient:  300,
		LearningRate:   0.01, // hotter than the full-scale calibration: tiny demo data
	}
	res, err := waitornot.New(opts).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Decentralized

	for p := range rep.PeerNames {
		fmt.Print(rep.PeerTable(p, opts.Model.String()))
		fmt.Println()
	}
	for p, name := range rep.PeerNames {
		last := rep.Rounds[p][len(rep.Rounds[p])-1]
		fmt.Printf("peer %s final round: adopted {%s} at accuracy %.4f (aggregated %d models, waited %.1f ms)\n",
			name, last.ChosenCombo, last.ChosenAccuracy, last.Included, last.WaitMs)
	}
	fmt.Printf("\non-chain: %d blocks, %d txs (%d model submissions, %d recorded decisions), %.1f MGas, %.2f MB\n",
		rep.Chain.Blocks, rep.Chain.Txs, rep.Chain.Submissions, rep.Chain.Decisions,
		float64(rep.Chain.GasUsed)/1e6, float64(rep.Chain.Bytes)/1e6)

	// Output:
	// Table II — Blockchain-based FL (SimpleNN): test accuracy per model combination, client A
	// Params from  r1      r2      r3
	// -----------  ------  ------  ------
	// A            0.2333  0.3033  0.3367
	// A,B          0.2500  0.3467  0.3800
	// A,C          0.2467  0.3267  0.3867
	// B,C          0.2433  0.3567  0.3967
	// A,B,C        0.2633  0.3567  0.3733
	//
	// Table III — Blockchain-based FL (SimpleNN): test accuracy per model combination, client B
	// Params from  r1      r2      r3
	// -----------  ------  ------  ------
	// B            0.2900  0.3767  0.3967
	// A,B          0.3233  0.4133  0.4100
	// B,C          0.3333  0.3767  0.4100
	// A,C          0.3533  0.3900  0.4067
	// A,B,C        0.3667  0.4167  0.4233
	//
	// Table IV — Blockchain-based FL (SimpleNN): test accuracy per model combination, client C
	// Params from  r1      r2      r3
	// -----------  ------  ------  ------
	// C            0.2700  0.3333  0.3867
	// A,C          0.2667  0.3433  0.3867
	// B,C          0.2967  0.3800  0.4067
	// A,B          0.2933  0.3867  0.4200
	// A,B,C        0.3067  0.3967  0.4000
	//
	// peer A final round: adopted {A,B} at accuracy 0.3800 (aggregated 3 models, waited 41.7 ms)
	// peer B final round: adopted {A,B} at accuracy 0.4100 (aggregated 3 models, waited 41.7 ms)
	// peer C final round: adopted {A,B} at accuracy 0.4200 (aggregated 3 models, waited 41.7 ms)
	//
	// on-chain: 8 blocks, 21 txs (9 model submissions, 9 recorded decisions), 36.2 MGas, 2.23 MB
}

// ExampleVanillaReport_TableI is the paper's central comparison: the
// same federated workload through a centralized aggregator (vanilla
// FL, Table I) and fully decentralized over the blockchain (Tables
// II–IV). The comparison is paired: both runs read one seed's world,
// so every client has the same training shard, test set, initial
// weights and local training stream in both, and only the aggregation
// differs.
func ExampleVanillaReport_TableI() {
	opts := waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        3,
		Rounds:         5,
		Seed:           7,
		TrainPerClient: 900,
		SelectionSize:  200,
		TestPerClient:  400,
		LearningRate:   0.01, // hotter than the full-scale calibration: small demo data
	}

	ctx := context.Background()
	vres, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindVanilla)).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	cres, err := waitornot.New(opts).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	vanilla, chainRep := vres.Vanilla, cres.Decentralized

	fmt.Print(vanilla.TableI(opts.Model.String()))
	fmt.Println()
	fmt.Print(chainRep.PeerTable(0, opts.Model.String()))
	fmt.Println()

	last := opts.Rounds - 1
	fmt.Println("final-round accuracy, centralized vs decentralized:")
	for ci, name := range vanilla.ClientNames {
		dec := chainRep.Rounds[ci][last]
		fmt.Printf("  client %s: vanilla(consider) %.4f | vanilla(not consider) %.4f | chain (adopted %s) %.4f\n",
			name, vanilla.Consider[ci][last], vanilla.NotConsider[ci][last], dec.ChosenCombo, dec.ChosenAccuracy)
	}
	fmt.Println("\nThe paper's finding: the decentralized setting matches the")
	fmt.Println("centralized one's accuracy band while removing the single point")
	fmt.Println("of failure — every peer aggregated for itself, on its own chain view.")

	// Output:
	// Table I — Vanilla FL (SimpleNN): clients' test accuracy under two aggregation types
	// Client  Params        r1      r2      r3      r4      r5
	// ------  ------------  ------  ------  ------  ------  ------
	// A       Consider      0.3275  0.4175  0.4450  0.4550  0.4625
	//         Not consider  0.3275  0.4175  0.4450  0.4525  0.4650
	// B       Consider      0.3725  0.4550  0.5000  0.4775  0.5200
	//         Not consider  0.3725  0.4550  0.5000  0.5000  0.5150
	// C       Consider      0.3725  0.4575  0.4925  0.5175  0.5325
	//         Not consider  0.3725  0.4575  0.4925  0.5125  0.5350
	//
	// Table II — Blockchain-based FL (SimpleNN): test accuracy per model combination, client A
	// Params from  r1      r2      r3      r4      r5
	// -----------  ------  ------  ------  ------  ------
	// A            0.3050  0.4000  0.4525  0.4675  0.4750
	// A,B          0.3250  0.4050  0.4450  0.4650  0.4700
	// A,C          0.2975  0.3975  0.4450  0.4625  0.4700
	// B,C          0.2800  0.3875  0.4525  0.4625  0.4825
	// A,B,C        0.3275  0.4175  0.4550  0.4650  0.4800
	//
	// final-round accuracy, centralized vs decentralized:
	//   client A: vanilla(consider) 0.4625 | vanilla(not consider) 0.4650 | chain (adopted A,C) 0.4700
	//   client B: vanilla(consider) 0.5200 | vanilla(not consider) 0.5150 | chain (adopted B) 0.4900
	//   client C: vanilla(consider) 0.5325 | vanilla(not consider) 0.5350 | chain (adopted B,C) 0.5175
	//
	// The paper's finding: the decentralized setting matches the
	// centralized one's accuracy band while removing the single point
	// of failure — every peer aggregated for itself, on its own chain view.
}

// ExampleOptions_filter runs the paper's "abnormal model" case: client
// C label-flips all of its training data. Without the selection-set
// filter (FilterMaxBelowBest) no peer adopts a combination that
// contains C: the combination search already scores C's model out.
// With the filter, A and B adopt the same models in every round and
// name C in Rejected, the evidence trail; every submission is an
// ECDSA-signed on-chain transaction, so C cannot repudiate it. The
// filter does change poisoned C's own choice: it rejects B's model
// and adopts {A,C}, and its final accuracy falls.
func ExampleOptions_filter() {
	base := waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        3,
		Rounds:         4,
		Seed:           9,
		TrainPerClient: 900,
		SelectionSize:  200,
		TestPerClient:  400,
		LearningRate:   0.01, // hotter than the full-scale calibration: small demo data
		PoisonClient:   2,    // C
		PoisonFraction: 1.0,  // fully label-flipped
	}
	report := func(opts waitornot.Options) *waitornot.DecentralizedReport {
		res, err := waitornot.New(opts).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Decentralized
		for p, name := range rep.PeerNames {
			last := rep.Rounds[p][len(rep.Rounds[p])-1]
			fmt.Printf("  peer %s: final accuracy %.4f, adopted {%s}, rejected %v\n",
				name, last.ChosenAccuracy, last.ChosenCombo, last.Rejected)
		}
		return rep
	}

	fmt.Println("--- run 1: no filtering (the combination search already keeps poisoned C out) ---")
	report(base)

	fmt.Println("\n--- run 2: selection-set filter on (threshold rejects abnormal models) ---")
	filtered := base
	filtered.FilterMaxBelowBest = 0.05
	rep := report(filtered)

	fmt.Println("\nA and B adopt what they adopted unfiltered and now name C as rejected;")
	fmt.Println("poisoned C rejects B and adopts {A,C}, at a lower accuracy.")
	fmt.Println("Every rejected update remains on chain as a signed transaction:")
	fmt.Printf("%d model submissions were recorded across %d blocks — the evidence\n",
		rep.Chain.Submissions, rep.Chain.Blocks)
	fmt.Println("trail for abnormality claims. C signed each submission with its")
	fmt.Println("account key, so authorship is non-repudiable.")

	// Output:
	// --- run 1: no filtering (the combination search already keeps poisoned C out) ---
	//   peer A: final accuracy 0.4550, adopted {A,B}, rejected []
	//   peer B: final accuracy 0.4175, adopted {B}, rejected []
	//   peer C: final accuracy 0.4250, adopted {A,B}, rejected []
	//
	// --- run 2: selection-set filter on (threshold rejects abnormal models) ---
	//   peer A: final accuracy 0.4550, adopted {A,B}, rejected [C]
	//   peer B: final accuracy 0.4175, adopted {B}, rejected [C]
	//   peer C: final accuracy 0.3525, adopted {A,C}, rejected [B]
	//
	// A and B adopt what they adopted unfiltered and now name C as rejected;
	// poisoned C rejects B and adopts {A,C}, at a lower accuracy.
	// Every rejected update remains on chain as a signed transaction:
	// 12 model submissions were recorded across 10 blocks — the evidence
	// trail for abnormality claims. C signed each submission with its
	// account key, so authorship is non-repudiable.
}

// ExampleScenario_Experiment runs a registered scenario through the
// Experiment API and prints its typed event stream. The registry
// replaces hand-rolled option wiring: look up a named workload, set
// demo-friendly fields on the copy, attach an observer, run. The
// events arrive in deterministic logical order at any Parallelism.
func ExampleScenario_Experiment() {
	sc, ok := waitornot.LookupScenario("non-iid")
	if !ok {
		log.Fatal("non-iid is not registered")
	}
	sc.Options.Rounds = 3
	exp := sc.Experiment(
		waitornot.WithFastScale(),
		waitornot.WithObserverFunc(func(ev waitornot.Event) {
			switch e := ev.(type) {
			case waitornot.RoundStart:
				fmt.Printf("== round %d\n", e.Round)
			case waitornot.PeerTrained:
				fmt.Printf("   %s trained on %d samples\n", e.Peer, e.Samples)
			case waitornot.ModelSubmitted:
				fmt.Printf("   %s committed %.1f KB of weights on-chain\n", e.Peer, float64(e.Bytes)/1024)
			case waitornot.AggregationDecided:
				fmt.Printf("   %s aggregated %d models -> {%s} acc %.4f\n",
					e.Peer, e.Included, e.ChosenCombo, e.Accuracy)
			}
		}))

	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscenario %s (%s) finished:\n", res.Scenario, res.Kind)
	rep := res.Decentralized
	for p, name := range rep.PeerNames {
		last := rep.Rounds[p][len(rep.Rounds[p])-1]
		fmt.Printf("  peer %s adopted {%s} at accuracy %.4f\n", name, last.ChosenCombo, last.ChosenAccuracy)
	}

	// Output:
	// == round 1
	//    A trained on 139 samples
	//    B trained on 179 samples
	//    C trained on 282 samples
	//    A committed 240.9 KB of weights on-chain
	//    B committed 240.9 KB of weights on-chain
	//    C committed 240.9 KB of weights on-chain
	//    A aggregated 3 models -> {A,B,C} acc 0.1000
	//    B aggregated 3 models -> {A,B} acc 0.1300
	//    C aggregated 3 models -> {B,C} acc 0.1200
	// == round 2
	//    A trained on 139 samples
	//    B trained on 179 samples
	//    C trained on 282 samples
	//    A committed 240.9 KB of weights on-chain
	//    B committed 240.9 KB of weights on-chain
	//    C committed 240.9 KB of weights on-chain
	//    A aggregated 3 models -> {A,C} acc 0.1400
	//    B aggregated 3 models -> {A,C} acc 0.1000
	//    C aggregated 3 models -> {A,B} acc 0.1200
	// == round 3
	//    A trained on 139 samples
	//    B trained on 179 samples
	//    C trained on 282 samples
	//    A committed 240.9 KB of weights on-chain
	//    B committed 240.9 KB of weights on-chain
	//    C committed 240.9 KB of weights on-chain
	//    A aggregated 3 models -> {A,B,C} acc 0.1200
	//    B aggregated 3 models -> {B,C} acc 0.1500
	//    C aggregated 3 models -> {A,B} acc 0.1000
	//
	// scenario non-iid (decentralized) finished:
	//   peer A adopted {A,B,C} at accuracy 0.1200
	//   peer B adopted {B,C} at accuracy 0.1500
	//   peer C adopted {A,B} at accuracy 0.1000
}

// ExampleExperiment_RunCampaign makes a replicated sweep durable. It
// runs one grid twice into a campaign directory: the first pass is
// cancelled from its observer after five cells land, the second
// resumes it, restoring those five from the log and computing only
// the rest. Every landed cell is fsync'd to the JSONL log before its
// progress event fires, and restored cells round-trip float64-exact,
// so the resumed table is the one an uninterrupted RunSweep renders.
// The first pass runs on one worker: a cell's progress event then
// fires before the next cell starts, so exactly five land.
func ExampleExperiment_RunCampaign() {
	experiment := func(opts ...waitornot.Option) *waitornot.Experiment {
		base := waitornot.Options{
			Model:           waitornot.SimpleNN,
			Rounds:          2,
			LearningRate:    0.05, // hotter rate for the demo's tiny shards
			StragglerFactor: []float64{1, 1, 3},
			CommitLatency:   true,
		}
		return waitornot.New(base, append([]waitornot.Option{
			waitornot.WithKind(waitornot.KindTradeoff),
			waitornot.WithFastScale(),
			waitornot.WithPolicies(waitornot.DefaultPolicies(3)...),
			waitornot.WithBackends("pow", "instant"),
			waitornot.WithSeeds(1, 2, 3),
		}, opts...)...)
	}
	dir, err := os.MkdirTemp("", "waitornot-campaign-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Pass 1: start the campaign and "crash" after 5 durable cells.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = experiment(waitornot.WithParallelism(1), waitornot.WithObserverFunc(func(ev waitornot.Event) {
		if e, ok := ev.(waitornot.SweepProgress); ok {
			fmt.Printf("  landed   %2d/%d  seed %d  %-10s %s\n", e.Done, e.Total, e.Seed, e.Policy, e.Backend)
			if e.Done == 5 {
				fmt.Println("  -- simulated crash (every landed cell is already on disk) --")
				cancel()
			}
		}
	})).RunCampaign(ctx, dir)
	if err == nil {
		log.Fatal("expected the cancelled first pass to stop early")
	}

	// Between passes: the directory speaks for itself.
	st, err := waitornot.LoadCampaign(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampaign status: %d/%d cells on disk — partial table:\n\n", st.Done, st.Total)
	fmt.Print(st.Partial.Table())
	fmt.Println()

	// Pass 2: resume. Restored cells stream first; only the rest run.
	rep, err := experiment(waitornot.WithObserverFunc(func(ev waitornot.Event) {
		if e, ok := ev.(waitornot.SweepProgress); ok {
			src := "computed"
			if e.Restored {
				src = "restored"
			}
			fmt.Printf("  %s %2d/%d  seed %d  %-10s %s\n", src, e.Done, e.Total, e.Seed, e.Policy, e.Backend)
		}
	})).RunCampaign(context.Background(), dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Table())

	// Output:
	//   landed    1/18  seed 1  wait-all   pow
	//   landed    2/18  seed 1  first-2    pow
	//   landed    3/18  seed 1  first-1    pow
	//   landed    4/18  seed 1  wait-all   instant
	//   landed    5/18  seed 1  first-2    instant
	//   -- simulated crash (every landed cell is already on disk) --
	//
	// campaign status: 5/18 cells on disk — partial table:
	//
	// Wait or not to wait (SimpleNN): speed vs precision per backend and wait policy, mean ± 95% CI over 3 seeds
	// backend  policy    n  final acc         mean wait (ms)  mean models
	// -------  --------  -  ----------------  --------------  ------------
	// pow      wait-all  1  0.2367 ± 0.0000   1000.0 ± 0.0    3.00 ± 0.00
	// pow      first-2   1  0.2167 ± 0.0000   1000.0 ± 0.0    2.00 ± 0.00
	// pow      first-1   1  0.1700 ± 0.0000   1.3 ± 0.0       1.00 ± 0.00
	// instant  wait-all  1  0.2367 ± 0.0000   41.1 ± 0.0      3.00 ± 0.00
	// instant  first-2   1  0.2167 ± 0.0000   40.1 ± 0.0      2.00 ± 0.00
	// instant  first-1   0  0.0000 ± 0.0000   0.0 ± 0.0       0.00 ± 0.00
	//
	//   restored  1/18  seed 1  wait-all   pow
	//   restored  2/18  seed 1  first-2    pow
	//   restored  3/18  seed 1  first-1    pow
	//   restored  4/18  seed 1  wait-all   instant
	//   restored  5/18  seed 1  first-2    instant
	//   computed  6/18  seed 1  first-1    instant
	//   computed  7/18  seed 2  wait-all   pow
	//   computed  8/18  seed 2  first-2    pow
	//   computed  9/18  seed 2  first-1    pow
	//   computed 10/18  seed 2  wait-all   instant
	//   computed 11/18  seed 2  first-2    instant
	//   computed 12/18  seed 2  first-1    instant
	//   computed 13/18  seed 3  wait-all   pow
	//   computed 14/18  seed 3  first-2    pow
	//   computed 15/18  seed 3  first-1    pow
	//   computed 16/18  seed 3  wait-all   instant
	//   computed 17/18  seed 3  first-2    instant
	//   computed 18/18  seed 3  first-1    instant
	//
	// Wait or not to wait (SimpleNN): speed vs precision per backend and wait policy, mean ± 95% CI over 3 seeds
	// backend  policy    n  final acc         mean wait (ms)  mean models
	// -------  --------  -  ----------------  --------------  ------------
	// pow      wait-all  3  0.2356 ± 0.0048   1000.0 ± 0.0    3.00 ± 0.00
	// pow      first-2   3  0.2144 ± 0.0096   1000.0 ± 0.0    2.00 ± 0.00
	// pow      first-1   3  0.1933 ± 0.0580   1.3 ± 0.0       1.00 ± 0.00
	// instant  wait-all  3  0.2356 ± 0.0048   41.1 ± 0.0      3.00 ± 0.00
	// instant  first-2   3  0.2144 ± 0.0096   40.1 ± 0.0      2.00 ± 0.00
	// instant  first-1   3  0.1933 ± 0.0580   1.3 ± 0.0       1.00 ± 0.00
}
