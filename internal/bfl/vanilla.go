package bfl

import (
	"context"
	"strings"

	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/par"
	"waitornot/internal/xrand"
)

// VanillaResult is the centralized baseline's output (Table I /
// Figure 3): only what the run determines, so the public report is
// this type.
type VanillaResult struct {
	ClientNames []string
	// Consider[client][round-1] / NotConsider[client][round-1] are test
	// accuracies under the two aggregation types.
	Consider    [][]float64
	NotConsider [][]float64
	// ConsiderCombos[round-1] is the combination the consider
	// aggregator adopted each round.
	ConsiderCombos []string
}

// RunVanilla executes the centralized baseline on the world a
// decentralized run of cfg reads: client i trains on the world's shard
// i (the poisoned copy included) from its peer's training stream, is
// tested on the world's test set i, and starts from the world's
// initial weights. One central aggregator merges every round's updates
// under the paper's two aggregation types, one arm each: "consider"
// scores every combination on the world's held-out set and adopts the
// best, "not consider" is plain FedAvg of everyone. Both arms train the
// same clients, so they are paired, and at round 1 "not consider" is
// the decentralized run's full-set combination. The fields that shape
// only a decentralized round (policy, filter, backend, stragglers,
// timing, client subsampling) play no part: the baseline trains every
// client every round, and the public layer refuses those fields on a
// vanilla experiment. The context is checked between rounds and
// between pool items, and ctx.Err() is returned (with no partial
// result) once it fires.
func RunVanilla(ctx context.Context, cfg Config) (*VanillaResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := cfg.ResolveWorld()
	if err != nil {
		return nil, err
	}
	res, root := &VanillaResult{ClientNames: make([]string, cfg.Peers)}, xrand.New(cfg.Seed)
	clients := make([]*fl.Client, cfg.Peers)
	for i := range clients {
		name := fl.ClientName(i)
		res.ClientNames[i], clients[i] = name, fl.NewClient(name, nil, w.train[i], w.sel[i], w.test[i], cfg.Hyper, root.Derive("train-"+name))
	}
	if res.Consider, res.ConsiderCombos, err = runArm(ctx, cfg, w, res.ClientNames, clients, true); err != nil {
		return nil, err
	}
	if res.NotConsider, _, err = runArm(ctx, cfg, w, res.ClientNames, clients, false); err != nil {
		return nil, err
	}
	return res, nil
}

// runArm executes one aggregation arm, returning each client's test
// accuracy per round (accuracy[client][round-1]) and the combination
// the aggregator adopted each round. Events are emitted from this (the
// coordinator's) goroutine only, at deterministic barriers, so the
// stream is identical at every Parallelism.
func runArm(ctx context.Context, cfg Config, w *World, names []string, clients []*fl.Client, consider bool) (accuracy [][]float64, chosen []string, err error) {
	arm := "not consider"
	if consider {
		arm = "consider"
	}
	sink, workers := cfg.Events, par.Workers(cfg.Parallelism)
	accuracy = make([][]float64, len(names))
	// The consider search scores on the held-out set through the
	// world's scratch, so the 2^n-1 combination aggregations allocate
	// nothing.
	var combos []fl.Combo
	var heldOut fl.Evaluator
	if consider {
		combos, heldOut = fl.AllCombos(len(names)), w.scratch.Evaluator(w.heldOutSet())
	}
	everyone := strings.Join(names, ",")

	global := w.initial
	for round := 1; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sink.Emit(event.RoundStart{Round: round, Arm: arm})
		// Each client trains from the global weights on its own shard and
		// derived RNG stream, so the round parallelizes bit-identically.
		updates := make([]*fl.Update, len(clients))
		err := par.ForEachCtx(ctx, workers, len(clients), func(i int) (err error) {
			updates[i], err = w.scratch.Train(clients[i], global, round)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		for i, u := range updates {
			sink.Emit(event.PeerTrained{Round: round, Peer: names[i], Arm: arm, Samples: u.NumSamples})
		}
		label := everyone
		if consider {
			results, err := w.scratch.EvaluateCombos(updates, combos, heldOut, workers)
			if err != nil {
				return nil, nil, err
			}
			best := fl.BestCombo(results).Combo
			// The search scores through reused scratch; the winner is
			// materialized (retained as next round's global) with the
			// allocating FedAvg — bit-identical accumulation.
			updates, label = best.Pick(updates), best.Label(names)
		}
		if global, err = fl.FedAvg(updates); err != nil {
			return nil, nil, err
		}
		chosen = append(chosen, label)
		err = par.ForEachCtx(ctx, workers, len(clients), func(i int) error {
			accuracy[i] = append(accuracy[i], w.scratch.Evaluator(clients[i].Test)(fl.Key{}, fl.Vector(global)))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		var meanAcc float64
		for _, accs := range accuracy {
			meanAcc += accs[round-1]
		}
		sink.Emit(event.AggregationDecided{
			Round:       round,
			Arm:         arm,
			Included:    len(clients),
			ChosenCombo: label,
			Accuracy:    meanAcc / float64(len(clients)),
		})
		sink.Emit(event.RoundEnd{Round: round, Arm: arm})
	}
	return accuracy, chosen, nil
}
