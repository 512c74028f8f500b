// Scenario streaming: run a registered scenario through the
// composable Experiment API, watch its typed event stream live, and
// cancel cleanly on Ctrl-C — the engine stops at the next round
// boundary and returns context.Canceled.
//
//	go run ./examples/scenario_stream            # non-iid scenario
//	go run ./examples/scenario_stream poisoning  # any registered name
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"

	"waitornot"
)

func main() {
	name := "non-iid"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The scenario registry replaces hand-rolled option wiring: look up
	// a named workload, set demo-friendly fields on the copy, attach an
	// observer, run. The event stream arrives in deterministic logical
	// order at any Parallelism.
	sc, ok := waitornot.LookupScenario(name)
	if !ok {
		log.Fatalf("unknown scenario %q (registered: %v)", name, waitornot.ScenarioNames())
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
			case waitornot.PolicyDone:
				fmt.Printf("   policy %s: acc %.4f, mean wait %.1f ms\n",
					e.Policy, e.FinalAccuracy, e.MeanWaitMs)
			}
		}))

	res, err := exp.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Println("\ncancelled at the round boundary — no partial report")
		return
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nscenario %s (%s) finished:\n", res.Scenario, res.Kind)
	switch {
	case res.Decentralized != nil:
		for p, name := range res.Decentralized.PeerNames {
			last := res.Decentralized.Rounds[p][len(res.Decentralized.Rounds[p])-1]
			fmt.Printf("  peer %s adopted {%s} at accuracy %.4f\n", name, last.ChosenCombo, last.ChosenAccuracy)
		}
	case res.Tradeoff != nil:
		fmt.Println(res.Tradeoff.Table())
	case res.Vanilla != nil:
		fmt.Println(res.Vanilla.TableI(waitornot.SimpleNN.String()))
	}
}
