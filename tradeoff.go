package waitornot

import (
	"fmt"
	"sync"

	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
)

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
