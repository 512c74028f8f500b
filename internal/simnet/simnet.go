// Package simnet is a deterministic discrete-event simulator for the
// blockchain performance questions the paper leans on (§II-A2): how
// throughput scales with participant count on a resource-shared testbed,
// how block capacity bounds throughput, how long aggregation rounds wait
// under different wait policies, and the "age of block" freshness metric
// from the related work it cites.
//
// Absolute milliseconds are not the point — the testbed is gone — but
// the shapes (halving throughput when peers double on one host, the
// capacity knee, the sync-vs-async wait gap) are reproduced from the
// same mechanisms the paper's setup had: N virtual machines sharing one
// physical host's compute, and per-byte gas limiting block capacity.
package simnet

import (
	"fmt"
	"math"
	"sort"

	"waitornot/internal/core"
	"waitornot/internal/par"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

// ThroughputConfig parameterizes the shared-host blockchain model.
type ThroughputConfig struct {
	// Peers is the number of blockchain nodes co-located on one host
	// (the paper's VirtualBox setup: more peers = thinner CPU slices).
	Peers int
	// TxExecMs is the single-core execution+validation cost of one
	// transaction.
	TxExecMs float64
	// HostCores is the physical parallelism shared by all peers.
	HostCores float64
	// BlockIntervalMs is the mean sealing interval.
	BlockIntervalMs float64
	// BlockGasLimit and TxGas bound how many txs fit a block.
	BlockGasLimit uint64
	TxGas         uint64
	// OfferedTxPerSec is the client load.
	OfferedTxPerSec float64
	// DurationMs is the simulated horizon.
	DurationMs float64
	// Seed drives arrival/sealing jitter.
	Seed uint64
}

// Throughput is one simulated operating point.
type Throughput struct {
	Peers           int
	CommittedPerSec float64
	MeanLatencyMs   float64 // submission -> commitment
	Blocks          int
}

// SimulateThroughput runs the shared-host model: transactions arrive
// Poisson at the offered rate, every peer must execute every
// transaction before it counts as validated (CPU share = HostCores /
// Peers), and a leader seals up to the block's gas capacity from the
// validated queue at exponential intervals.
func SimulateThroughput(cfg ThroughputConfig) Throughput {
	if cfg.Peers <= 0 || cfg.TxExecMs <= 0 || cfg.BlockIntervalMs <= 0 || cfg.TxGas == 0 {
		panic(fmt.Sprintf("simnet: bad throughput config %+v", cfg))
	}
	rng := xrand.New(cfg.Seed).Derive("throughput")
	// Every event is peerless (vclock.Global), so ordering is (time,
	// scheduling order).
	clock := vclock.New()
	after := func(delay float64, fn func()) {
		clock.After(delay, vclock.Global, func() error { fn(); return nil })
	}

	// Validation: each peer re-executes every tx; peers progress at
	// HostCores/Peers of a core. The slowest peer gates inclusion, and
	// with identical peers that is simply the shared-rate pipeline:
	// service time per tx = TxExecMs * Peers / HostCores.
	serviceMs := cfg.TxExecMs * float64(cfg.Peers) / cfg.HostCores

	type txRec struct{ submitted float64 }
	var (
		validated   []txRec // FIFO awaiting inclusion
		queueBusyAt float64 // when the validation pipeline frees up
		committed   int
		latencySum  float64
		blocks      int
	)
	capacity := int(cfg.BlockGasLimit / cfg.TxGas)

	// Poisson arrivals.
	var arrive func()
	interArrivalMs := 1000.0 / cfg.OfferedTxPerSec
	arrive = func() {
		t := txRec{submitted: clock.Now()}
		// Tx enters the validation pipeline (single shared queue).
		start := clock.Now()
		if queueBusyAt > start {
			start = queueBusyAt
		}
		finish := start + serviceMs
		queueBusyAt = finish
		after(finish-clock.Now(), func() {
			validated = append(validated, t)
		})
		after(rng.ExpFloat64()*interArrivalMs, arrive)
	}
	after(rng.ExpFloat64()*interArrivalMs, arrive)

	// Block sealing.
	var seal func()
	seal = func() {
		n := len(validated)
		if n > capacity {
			n = capacity
		}
		for _, t := range validated[:n] {
			latencySum += clock.Now() - t.submitted
			committed++
		}
		validated = validated[n:]
		blocks++
		after(rng.ExpFloat64()*cfg.BlockIntervalMs, seal)
	}
	after(rng.ExpFloat64()*cfg.BlockIntervalMs, seal)

	_ = clock.RunUntil(cfg.DurationMs) // callbacks never error

	out := Throughput{Peers: cfg.Peers, Blocks: blocks}
	out.CommittedPerSec = float64(committed) / (cfg.DurationMs / 1000)
	if committed > 0 {
		out.MeanLatencyMs = latencySum / float64(committed)
	}
	return out
}

// SweepPeers runs SimulateThroughput over several peer counts
// (everything else fixed) — the VFChain-style scaling experiment.
// Operating points are independent simulations of the same seed, so
// they run concurrently with results landing in peer-count order.
func SweepPeers(base ThroughputConfig, peerCounts []int) []Throughput {
	out, err := par.Map(par.Workers(0), len(peerCounts), func(i int) (Throughput, error) {
		cfg := base
		cfg.Peers = peerCounts[i]
		return SimulateThroughput(cfg), nil
	})
	if err != nil { // unreachable: the simulation never errors
		panic(err)
	}
	return out
}

// SweepBlockGas runs SimulateThroughput over several block gas limits —
// the block-capacity experiment (refs [11], [12]). Points run
// concurrently, landing in limit order (see SweepPeers).
func SweepBlockGas(base ThroughputConfig, limits []uint64) []Throughput {
	out, err := par.Map(par.Workers(0), len(limits), func(i int) (Throughput, error) {
		cfg := base
		cfg.BlockGasLimit = limits[i]
		return SimulateThroughput(cfg), nil
	})
	if err != nil { // unreachable: the simulation never errors
		panic(err)
	}
	return out
}

// RoundConfig parameterizes the aggregation-round latency model.
type RoundConfig struct {
	// Peers is the participant count.
	Peers int
	// MeanTrainMs and TrainJitter (fraction) shape per-peer training
	// durations: d = MeanTrainMs * (1 +- uniform(TrainJitter)).
	MeanTrainMs float64
	TrainJitter float64
	// StragglerFactor multiplies one designated straggler's duration
	// (1.0 = none).
	StragglerFactor float64
	// BlockIntervalMs quantizes visibility: an update becomes visible
	// to others at the next block boundary after it is submitted.
	BlockIntervalMs float64
	// NetworkMs is the submission propagation delay.
	NetworkMs float64
	// Rounds is how many independent rounds to simulate.
	Rounds int
	// Seed drives the jitter.
	Seed uint64
}

// RoundStats aggregates simulated rounds for one policy.
type RoundStats struct {
	Policy string
	// MeanWaitMs is the mean time from round start until the policy
	// fires at the observing peer.
	MeanWaitMs float64
	// MeanIncluded is the mean number of models aggregated.
	MeanIncluded float64
	// MeanAgeMs is the mean "age of block" of included updates: how
	// stale an update is (visibility time minus its training
	// completion) when aggregation happens.
	MeanAgeMs float64
}

// SimulateRounds measures aggregation wait time under a wait policy,
// from peer 0's perspective, over many simulated rounds.
func SimulateRounds(cfg RoundConfig, policy core.WaitPolicy) RoundStats {
	if cfg.Peers <= 0 || cfg.Rounds <= 0 || cfg.MeanTrainMs <= 0 {
		panic(fmt.Sprintf("simnet: bad round config %+v", cfg))
	}
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 1
	}
	rng := xrand.New(cfg.Seed).Derive("rounds")
	var waitSum, includedSum, ageSum float64
	var ageCount int
	for r := 0; r < cfg.Rounds; r++ {
		// Training completion per peer.
		complete := make([]float64, cfg.Peers)
		for i := range complete {
			jitter := 1 + cfg.TrainJitter*(2*rng.Float64()-1)
			complete[i] = cfg.MeanTrainMs * jitter
			if i == cfg.Peers-1 {
				complete[i] *= cfg.StragglerFactor
			}
		}
		// Visibility at the observer: own model at completion; others
		// at the first block boundary after completion + network. The
		// firing rule itself is shared with the experiment runner
		// (core.FirePolicy), so both face identical wait semantics.
		arrivals := make([]core.Arrival, cfg.Peers)
		for i := range arrivals {
			at := complete[i]
			if i != 0 {
				at = CommitVisibilityMs(complete[i]+cfg.NetworkMs, cfg.BlockIntervalMs)
			}
			arrivals[i] = core.Arrival{AtMs: at, Index: i, Self: i == 0}
		}
		sort.SliceStable(arrivals, func(i, j int) bool {
			if arrivals[i].AtMs != arrivals[j].AtMs {
				return arrivals[i].AtMs < arrivals[j].AtMs
			}
			return arrivals[i].Index < arrivals[j].Index
		})
		included, fireAt := core.FirePolicy(policy, arrivals, cfg.Peers)
		waitSum += fireAt
		includedSum += float64(included)
		for _, a := range arrivals[:included] {
			ageSum += fireAt - complete[a.Index]
			ageCount++
		}
	}
	out := RoundStats{
		Policy:       policy.Name(),
		MeanWaitMs:   waitSum / float64(cfg.Rounds),
		MeanIncluded: includedSum / float64(cfg.Rounds),
	}
	if ageCount > 0 {
		out.MeanAgeMs = ageSum / float64(ageCount)
	}
	return out
}

// CommitVisibilityMs quantizes an update's visibility to the ledger's
// commit interval: an update submitted at submittedMs becomes readable
// at the first block boundary strictly after it, or immediately when
// the interval is zero (the instant backend). This is the commit-
// latency hook the experiment runner shares with the round simulator,
// so wait policies face the same block-interval delays in both.
func CommitVisibilityMs(submittedMs, intervalMs float64) float64 {
	if intervalMs <= 0 {
		return submittedMs
	}
	k := int(submittedMs/intervalMs) + 1
	return float64(k) * intervalMs
}

// DistKind selects a duration distribution family.
type DistKind int

// The distribution families heterogeneous sweeps draw from.
const (
	// DistFixed always returns Mean (the zero value: no jitter).
	DistFixed DistKind = iota
	// DistUniform draws Mean * (1 ± Jitter), uniform.
	DistUniform
	// DistLogNormal draws Mean * exp(Jitter·Z − Jitter²/2) — right-
	// skewed with mean Mean: occasional heavy stragglers, the empirical
	// shape of shared-infrastructure compute.
	DistLogNormal
	// DistExponential draws Exp(Mean) (Jitter ignored) — memoryless
	// network-style delays.
	DistExponential
)

// String names the family ("fixed", "uniform", ...).
func (k DistKind) String() string {
	switch k {
	case DistFixed:
		return "fixed"
	case DistUniform:
		return "uniform"
	case DistExponential:
		return "exponential"
	case DistLogNormal:
		return "lognormal"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// Dist is a deterministic positive-duration (or multiplier)
// distribution: heterogeneous compute and network draws for the
// virtual-time engine, seeded per peer through xrand streams.
type Dist struct {
	Kind DistKind
	// Mean is the central value (a multiplier for compute draws, ms for
	// network draws).
	Mean float64
	// Jitter is the relative spread (DistUniform needs Jitter <= 1 to
	// stay positive).
	Jitter float64
}

// IsZero reports whether the distribution is unset.
func (d Dist) IsZero() bool { return d == Dist{} }

// Validate rejects distributions that could draw non-positive
// durations or that name no family.
func (d Dist) Validate() error {
	if d.IsZero() {
		return nil
	}
	if d.Mean <= 0 {
		return fmt.Errorf("simnet: distribution mean %g must be positive", d.Mean)
	}
	if d.Jitter < 0 {
		return fmt.Errorf("simnet: distribution jitter %g must be non-negative", d.Jitter)
	}
	switch d.Kind {
	case DistFixed, DistLogNormal, DistExponential:
	case DistUniform:
		if d.Jitter > 1 {
			return fmt.Errorf("simnet: uniform jitter %g > 1 could draw negative durations", d.Jitter)
		}
	default:
		return fmt.Errorf("simnet: unknown distribution kind %d", int(d.Kind))
	}
	return nil
}

// Draw samples one positive value. A zero Dist draws 1 (the neutral
// multiplier), so unset distributions cost callers no branch.
func (d Dist) Draw(rng *xrand.RNG) float64 {
	if d.IsZero() {
		return 1
	}
	switch d.Kind {
	case DistUniform:
		return d.Mean * (1 + d.Jitter*(2*rng.Float64()-1))
	case DistLogNormal:
		return d.Mean * math.Exp(d.Jitter*rng.NormFloat64()-d.Jitter*d.Jitter/2)
	case DistExponential:
		return d.Mean * rng.ExpFloat64()
	default: // DistFixed
		return d.Mean
	}
}
