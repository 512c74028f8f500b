package waitornot

import (
	"fmt"
	"sync"

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
// transaction throughput as co-located peer count (at least 1) grows.
func ThroughputVsPeers(peerCounts []int, seed uint64) ([]NetworkPoint, error) {
	for _, n := range peerCounts {
		if n < 1 {
			return nil, fmt.Errorf("waitornot: throughput needs at least 1 peer, got %d", n)
		}
	}
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
	return sweepThroughput(base, len(peerCounts), func(cfg *simnet.ThroughputConfig, i int) string {
		cfg.Peers = peerCounts[i]
		return fmt.Sprintf("%d peers", cfg.Peers)
	})
}

// ThroughputVsBlockGas reproduces the block-capacity premise (refs
// [11], [12]): throughput as the block gas limit varies relative to a
// model-sized transaction. A zero txGas is an error.
func ThroughputVsBlockGas(limits []uint64, txGas uint64, seed uint64) ([]NetworkPoint, error) {
	if txGas == 0 {
		return nil, fmt.Errorf("waitornot: throughput needs a transaction gas above 0")
	}
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
	return sweepThroughput(base, len(limits), func(cfg *simnet.ThroughputConfig, i int) string {
		cfg.BlockGasLimit = limits[i]
		return fmt.Sprintf("gas %d", cfg.BlockGasLimit)
	})
}

// sweepThroughput simulates n variations of base, point i's set by vary
// (which returns its label). The points are independent simulations,
// so they run concurrently, landing in order.
func sweepThroughput(base simnet.ThroughputConfig, n int, vary func(cfg *simnet.ThroughputConfig, i int) string) ([]NetworkPoint, error) {
	return par.Map(par.Workers(0), n, func(i int) (NetworkPoint, error) {
		cfg := base
		label := vary(&cfg, i)
		p := simnet.SimulateThroughput(cfg)
		return NetworkPoint{Label: label, CommittedPerSec: p.CommittedPerSec, MeanLatencyMs: p.MeanLatencyMs}, nil
	})
}

// DefaultPolicies returns the policy ladder the trade-off study sweeps:
// fully synchronous down to fully asynchronous.
func DefaultPolicies(peers int) []Policy {
	ps := []Policy{{}}
	for k := peers - 1; k >= 1; k-- {
		ps = append(ps, Policy{K: k})
	}
	return ps
}
