package waitornot

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/metrics"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
)

// PolicyOutcome summarizes one wait policy's run in the trade-off study
// — the PolicyDone event the arm emitted: its position in the sweep
// (Index), the Policy and the consensus Backend it committed through
// (empty on the unnamed default: Options.Backend left blank, no backend
// ladder), the mean adopted-model test accuracy across peers in the
// final round, and the mean per-round aggregation wait and
// aggregated-model count across peers and rounds.
type PolicyOutcome = event.PolicyDone

// TradeoffReport answers the title question for one model: what does
// each wait policy cost in accuracy, and what does it save in time.
type TradeoffReport struct {
	Model    Model
	Outcomes []PolicyOutcome
}

// runTradeoff is the trade-off runner behind Experiment.Run: the
// decentralized experiment once per policy × backend (identical data,
// seeds, and initial weights), summarized as the speed-vs-precision
// frontier. A trade-off run is a one-seed sweep, so it resolves the
// same sweepPlan RunSweep does — seeds = {Options.Seed}, the grid
// backend-major × policy order, the worker budget split between the
// concurrent arms and each arm's own training pool — and maps every
// SweepRun to a PolicyOutcome, built once: the value the report keeps
// (index-addressed slots, one writer each) is the PolicyDone event that
// streams out, restored to sweep order. Round-level events of the arms
// are suppressed (they would interleave nondeterministically).
//
// An arm's Backend is its effective backend name: explicitly named
// substrates label their outcomes even in a single-backend sweep; only
// the unnamed default (Options.Backend left blank, no backend ladder)
// stays blank.
func (e *Experiment) runTradeoff(ctx context.Context) (*TradeoffReport, error) {
	one := *e
	one.sc.Seeds = []uint64{e.sc.Options.withDefaults().Seed}
	one.target = 0 // a sweep metric; Run ignores it
	plan, err := one.sweepPlan()
	if err != nil {
		return nil, err
	}
	rep := &TradeoffReport{Model: plan.Options.Model, Outcomes: make([]PolicyOutcome, plan.total())}
	_, err = plan.runAll(ctx, observerSink(e.observer), plan.all(), func(i int, run SweepRun) (event.Event, error) {
		rep.Outcomes[i] = PolicyOutcome{
			Index:         i,
			Policy:        run.Policy,
			Backend:       run.Backend,
			FinalAccuracy: run.FinalAccuracy,
			MeanWaitMs:    run.MeanWaitMs,
			MeanIncluded:  run.MeanIncluded,
		}
		return rep.Outcomes[i], nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// orderedEmitter restores sweep order to events produced by
// concurrent workers: event i is forwarded only once events 0..i-1
// have been, with out-of-order arrivals buffered. Forwarding happens
// under the lock, which also serializes the sink per the Observer
// contract.
type orderedEmitter struct {
	sink event.Sink
	mu   sync.Mutex
	next int
	buf  map[int]event.Event
}

func newOrderedEmitter(sink event.Sink) *orderedEmitter {
	return &orderedEmitter{sink: sink, buf: map[int]event.Event{}}
}

func (oe *orderedEmitter) emit(i int, ev event.Event) {
	if oe.sink == nil {
		return
	}
	oe.mu.Lock()
	defer oe.mu.Unlock()
	oe.buf[i] = ev
	for {
		pending, ok := oe.buf[oe.next]
		if !ok {
			return
		}
		oe.sink(pending)
		delete(oe.buf, oe.next)
		oe.next++
	}
}

// Table renders the trade-off frontier. A backend column appears when
// the sweep spanned consensus backends.
func (r *TradeoffReport) Table() string {
	withBackends := slices.ContainsFunc(r.Outcomes, func(o PolicyOutcome) bool { return o.Backend != "" })
	title := fmt.Sprintf("Wait or not to wait (%s): speed vs precision per wait policy", r.Model)
	header := []string{"policy", "final acc", "mean wait (ms)", "mean models"}
	if withBackends {
		title = fmt.Sprintf("Wait or not to wait (%s): speed vs precision per backend and wait policy", r.Model)
		header = append([]string{"backend"}, header...)
	}
	tab := metrics.NewTable(title, header...)
	for _, o := range r.Outcomes {
		row := []string{o.Policy, metrics.Acc(o.FinalAccuracy),
			fmt.Sprintf("%.1f", o.MeanWaitMs), fmt.Sprintf("%.2f", o.MeanIncluded)}
		if withBackends {
			row = append([]string{o.Backend}, row...)
		}
		tab.Add(row...)
	}
	return tab.ASCII()
}

// NetworkPoint is one operating point of the blockchain performance
// sweeps.
type NetworkPoint struct {
	Label           string
	CommittedPerSec float64
	MeanLatencyMs   float64
}

// ThroughputVsPeers reproduces the §II-A2 scaling premise: committed
// transaction throughput as co-located peer count grows.
func ThroughputVsPeers(peerCounts []int, seed uint64) []NetworkPoint {
	base := simnet.ThroughputConfig{
		TxExecMs:        2,
		HostCores:       2,
		BlockIntervalMs: 1000,
		BlockGasLimit:   100_000_000,
		TxGas:           100_000,
		OfferedTxPerSec: 400,
		DurationMs:      120_000,
		Seed:            seed,
	}
	pts := simnet.SweepPeers(base, peerCounts)
	out := make([]NetworkPoint, len(pts))
	for i, p := range pts {
		out[i] = NetworkPoint{
			Label:           fmt.Sprintf("%d peers", p.Peers),
			CommittedPerSec: p.CommittedPerSec,
			MeanLatencyMs:   p.MeanLatencyMs,
		}
	}
	return out
}

// ThroughputVsBlockGas reproduces the block-capacity premise (refs
// [11], [12]): throughput as the block gas limit varies relative to a
// model-sized transaction.
func ThroughputVsBlockGas(limits []uint64, txGas uint64, seed uint64) []NetworkPoint {
	base := simnet.ThroughputConfig{
		Peers:           3,
		TxExecMs:        0.5,
		HostCores:       6,
		BlockIntervalMs: 1000,
		TxGas:           txGas,
		OfferedTxPerSec: 200,
		DurationMs:      120_000,
		Seed:            seed,
	}
	pts := simnet.SweepBlockGas(base, limits)
	out := make([]NetworkPoint, len(pts))
	for i, p := range pts {
		out[i] = NetworkPoint{
			Label:           fmt.Sprintf("gas %d", limits[i]),
			CommittedPerSec: p.CommittedPerSec,
			MeanLatencyMs:   p.MeanLatencyMs,
		}
	}
	return out
}

// RoundLatencyStats is one policy's row of RoundLatencyByPolicy: mean
// wait, participation and update age over the simulated rounds.
type RoundLatencyStats = simnet.RoundStats

// RoundLatencyByPolicy simulates many aggregation rounds per policy on
// the virtual clock (no training), reporting wait time, participation,
// and update staleness ("age of block"). Each policy's simulation is
// an independent deterministic run of the same seed, so policies are
// simulated concurrently with stats landing in policy order.
func RoundLatencyByPolicy(peers int, policies []Policy, seed uint64) []RoundLatencyStats {
	cfg := simnet.RoundConfig{
		Peers:           peers,
		MeanTrainMs:     5000,
		TrainJitter:     0.3,
		StragglerFactor: 3,
		BlockIntervalMs: 500,
		NetworkMs:       50,
		Rounds:          1000,
		Seed:            seed,
	}
	out, err := par.Map(par.Workers(0), len(policies), func(i int) (simnet.RoundStats, error) {
		return simnet.SimulateRounds(cfg, policies[i].internal()), nil
	})
	if err != nil { // unreachable: the simulation never errors
		panic(err)
	}
	return out
}

// DefaultPolicies returns the policy ladder the trade-off study sweeps:
// fully synchronous down to fully asynchronous.
func DefaultPolicies(peers int) []Policy {
	ps := []Policy{{Kind: WaitAll}}
	for k := peers - 1; k >= 1; k-- {
		ps = append(ps, Policy{Kind: FirstK, K: k})
	}
	return ps
}

var _ core.WaitPolicy = core.WaitAll{} // compile-time: facade stays in sync with engine
