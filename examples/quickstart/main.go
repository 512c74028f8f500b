// Quickstart: run a small fully coupled blockchain-FL experiment —
// three peers train a SimpleNN, share models over the PoW chain, and
// each personalizes its own aggregation — then print each peer's
// combination table and the chain footprint.
//
//	go run ./examples/quickstart
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
		fmt.Println(rep.PeerTable(p, opts.Model.String()))
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
}
