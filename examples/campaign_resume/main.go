// Campaign resume: the replicated sweep made durable. The program
// runs the same grid twice into one campaign directory — the first
// pass is cancelled after a few cells land, the second resumes it —
// and then proves the point: the resumed report is byte-identical to
// an uninterrupted in-memory RunSweep of the same configuration,
// because every landed cell was fsync'd to the JSONL log before its
// progress event fired, and restored cells round-trip float64-exact.
//
//	go run ./examples/campaign_resume
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"waitornot"
)

func experiment(obs waitornot.Observer) *waitornot.Experiment {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Rounds:          2,
		LearningRate:    0.05, // hotter rate for the demo's tiny shards
		StragglerFactor: []float64{1, 1, 3},
		CommitLatency:   true,
	}
	return waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithFastScale(),
		waitornot.WithPolicies(waitornot.DefaultPolicies(3)...),
		waitornot.WithBackends("pow", "instant"),
		waitornot.WithSeeds(1, 2, 3),
		waitornot.WithObserver(obs))
}

func main() {
	dir, err := os.MkdirTemp("", "waitornot-campaign-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Pass 1: start the campaign and "crash" after 5 durable cells.
	ctx, cancel := context.WithCancel(context.Background())
	landed := 0
	_, err = experiment(waitornot.ObserverFunc(func(ev waitornot.Event) {
		if e, ok := ev.(waitornot.SweepProgress); ok && !e.Restored {
			landed++
			fmt.Printf("  landed   %2d/%d  seed %d  %-10s %-8s\n", e.Done, e.Total, e.Seed, e.Policy, e.Backend)
			if landed == 5 {
				fmt.Println("  -- simulated crash (every landed cell is already on disk) --")
				cancel()
			}
		}
	})).RunCampaign(ctx, dir)
	cancel()
	if err == nil {
		log.Fatal("expected the cancelled first pass to stop early")
	}

	// Between passes: the directory speaks for itself.
	st, err := waitornot.LoadCampaign(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncampaign status: %d/%d cells on disk — partial table:\n\n%s\n",
		st.Done, st.Total, st.Partial.Table())

	// Pass 2: resume. Restored cells stream first; only the rest run.
	rep, err := experiment(waitornot.ObserverFunc(func(ev waitornot.Event) {
		if e, ok := ev.(waitornot.SweepProgress); ok {
			src := "computed"
			if e.Restored {
				src = "restored"
			}
			fmt.Printf("  %s %2d/%d  seed %d  %-10s %-8s\n", src, e.Done, e.Total, e.Seed, e.Policy, e.Backend)
		}
	})).RunCampaign(context.Background(), dir)
	if err != nil {
		log.Fatal(err)
	}

	// The proof: an uninterrupted in-memory sweep renders byte-identical
	// tables.
	want, err := experiment(nil).RunSweep(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(rep.Table())
	if rep.Table() == want.Table() && rep.CSV() == want.CSV() {
		fmt.Println("resumed campaign == uninterrupted sweep, byte for byte.")
	} else {
		log.Fatal("tables diverged — determinism bug")
	}
}
