// Poisoning detection: client C label-flips all of its training data
// (the paper's "abnormal model" scenario — whether malicious or just
// noisy). The healthy peers' selection-set filter rejects C's updates
// before aggregation, and because every submission is an ECDSA-signed
// on-chain transaction, C cannot repudiate the models it shared — the
// paper's non-repudiation case.
//
//	go run ./examples/poisoning_detection
package main

import (
	"context"
	"fmt"
	"log"

	"waitornot"
)

func main() {
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

	fmt.Println("--- run 1: no filtering (poisoned C pollutes aggregations) ---")
	unfiltered, err := waitornot.New(base).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	report(unfiltered.Decentralized)

	fmt.Println("\n--- run 2: selection-set filter on (threshold rejects abnormal models) ---")
	filtered := base
	filtered.FilterMaxBelowBest = 0.05
	res, err := waitornot.New(filtered).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Decentralized
	report(rep)

	fmt.Println("\nEvery rejected update remains on chain as a signed transaction:")
	fmt.Printf("%d model submissions were recorded across %d blocks — the evidence\n",
		rep.Chain.Submissions, rep.Chain.Blocks)
	fmt.Println("trail for abnormality claims. C signed each submission with its")
	fmt.Println("account key, so authorship is non-repudiable.")
}

func report(rep *waitornot.DecentralizedReport) {
	for p, name := range rep.PeerNames {
		last := rep.Rounds[p][len(rep.Rounds[p])-1]
		fmt.Printf("  peer %s: final accuracy %.4f, adopted {%s}, rejected %v\n",
			name, last.ChosenAccuracy, last.ChosenCombo, last.Rejected)
	}
}
