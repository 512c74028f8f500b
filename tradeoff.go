package waitornot

import (
	"fmt"
	"sync"

	"waitornot/internal/event"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
	"waitornot/internal/xrand"
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

// RoundLatencyStats is one policy's row of RoundLatencyByPolicy.
type RoundLatencyStats struct {
	Policy string
	// MeanWaitMs is the mean time from round start until the policy
	// fires at the observing peer.
	MeanWaitMs float64
	// MeanIncluded is the mean number of models aggregated.
	MeanIncluded float64
	// MeanAgeMs is the mean "age of block" of the included updates: the
	// firing time minus their training completion.
	MeanAgeMs float64
}

// RoundLatencyByPolicy walks 1000 rounds per policy on the virtual
// clock (no training) from peer 0's view, reporting wait time,
// participation, and update staleness ("age of block"). Each round
// draws every peer's training time, 5000 ms ± 30% uniform with the
// last peer a 3x straggler, sends each update 50 ms later, and makes
// it visible on a 500 ms block interval (simnet.WalkRound). Each
// policy's walk is an independent deterministic run of the same seed,
// so policies are walked concurrently with stats landing in policy
// order. Fewer than 1 peer, or a policy Policy.Validate refuses, is an
// error.
func RoundLatencyByPolicy(peers int, policies []Policy, seed uint64) ([]RoundLatencyStats, error) {
	if peers < 1 {
		return nil, fmt.Errorf("waitornot: round latency needs at least 1 peer, got %d", peers)
	}
	const rounds, trainMs, straggler, networkMs, blockMs = 1000, 5000, 3, 50, 500
	jitter := simnet.Dist{Kind: simnet.DistUniform, Mean: 1, Jitter: 0.3}
	return par.Map(par.Workers(0), len(policies), func(i int) (RoundLatencyStats, error) {
		if err := policies[i].Validate(); err != nil {
			return RoundLatencyStats{}, err
		}
		policy := policies[i].internal()
		rng := xrand.New(seed).Derive("rounds")
		sends := make([]simnet.Send, peers)
		st := RoundLatencyStats{Policy: policy.Name()}
		var ageSum float64
		var aged int
		for range rounds {
			for k := range sends {
				done := trainMs * jitter.Draw(rng)
				if k == peers-1 {
					done *= straggler
				}
				sends[k] = simnet.Send{TrainedMs: done, SentMs: done + networkMs, Own: k == 0}
			}
			included, firedAt := simnet.WalkRound(policy, sends, blockMs)
			st.MeanWaitMs += firedAt
			st.MeanIncluded += float64(len(included))
			for _, k := range included {
				ageSum += firedAt - sends[k].TrainedMs
				aged++
			}
		}
		st.MeanWaitMs /= rounds
		st.MeanIncluded /= rounds
		if aged > 0 {
			st.MeanAgeMs = ageSum / float64(aged)
		}
		return st, nil
	})
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
