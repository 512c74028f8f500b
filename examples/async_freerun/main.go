// Asynchronous free run: the paper's wait-or-not question asked on the
// axis it actually lives on — virtual time. No global round barrier:
// each peer trains, waits only as long as its policy says, merges the
// updates that have arrived with staleness-weighted averaging, and
// immediately opens its next round on the shared virtual clock.
// Training completions, gossip hops, ledger commits, and policy
// deadlines are all events on one deterministic event queue, so the
// whole free run is bit-reproducible from the seed.
//
// The observer prints each merge as it fires; the report renders the
// per-peer schedule, the fleet's accuracy-vs-time curve, and the time
// needed to reach target accuracies.
//
//	go run ./examples/async_freerun
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"waitornot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := waitornot.Options{
		Model:        waitornot.SimpleNN,
		Rounds:       4,
		LearningRate: 0.05, // hotter rate for the demo's tiny shards
		// One heavy straggler makes "wait or not" a real question, and
		// lognormal compute jitter makes every round's answer differ.
		StragglerFactor: []float64{1, 1, 3},
		ComputeDist:     waitornot.Dist{Kind: waitornot.DistLogNormal, Mean: 1, Jitter: 0.4},
		NetworkDist:     waitornot.Dist{Kind: waitornot.DistUniform, Mean: 30, Jitter: 0.5},
		Policy:          waitornot.Policy{Kind: waitornot.FirstK, K: 2},
		CommitLatency:   true, // merges face real block-interval delays
		SkipComboTables: true,
	}

	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindAsync),
		waitornot.WithFastScale(),
		waitornot.WithObserverFunc(func(ev waitornot.Event) {
			switch e := ev.(type) {
			case waitornot.PeerAggregated:
				fmt.Printf("t=%8.1f ms  %s merged %d models (round %d, staleness %.0f ms) -> acc %.4f\n",
					e.VirtualMs, e.Peer, e.Included, e.Round, e.MeanStalenessMs, e.Accuracy)
			case waitornot.BlockCommitted:
				fmt.Printf("t=%8.1f ms  block %d sealed via %s (%d txs)\n",
					e.VirtualMs, e.Height, e.Backend, e.Txs)
			}
		})).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	rep := res.Async
	fmt.Println()
	fmt.Println(rep.Table())
	fmt.Println()
	fmt.Println(rep.TimeToAccuracyTable(0.2, 0.3, 0.4, 0.5))
	fmt.Println()
	fmt.Println("fleet accuracy vs virtual time:")
	for _, pt := range rep.Timeline() {
		fmt.Printf("  t=%8.1f ms  mean acc %.4f\n", pt.AtMs, pt.MeanAccuracy)
	}
	fmt.Println()
	fmt.Println(rep.Summary())
}
