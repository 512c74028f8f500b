// Vanilla vs chain: the paper's central comparison. Runs the same
// federated workload twice — once through a centralized aggregator
// (Vanilla FL, Table I) and once fully decentralized over the
// blockchain (Tables II-IV) — and compares final accuracies, showing
// the two settings land in the same band. The comparison is paired:
// both runs read one seed's world, so every client has the same
// training shard, test set, initial weights and local training stream
// in both, and only the aggregation differs.
//
//	go run ./examples/vanilla_vs_chain
package main

import (
	"context"
	"fmt"
	"log"

	"waitornot"
)

func main() {
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

	fmt.Println(vanilla.TableI(opts.Model.String()))
	fmt.Println()
	fmt.Println(chainRep.PeerTable(0, opts.Model.String()))
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
}
