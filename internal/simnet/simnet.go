// Package simnet is a deterministic discrete-event simulator for the
// blockchain performance questions the paper leans on (§II-A2): how
// throughput scales with participant count on a resource-shared testbed,
// how block capacity bounds throughput, and — through WalkRound, the
// arrival walk every barriered round fires its wait policy over, and
// WaitTerms — how long aggregation rounds wait, and on what.
//
// Absolute milliseconds are not the point — the testbed is gone — but
// the shapes (halving throughput when peers double on one host, the
// capacity knee, the sync-vs-async wait gap) are reproduced from the
// same mechanisms the paper's setup had: N virtual machines sharing one
// physical host's compute, and per-byte gas limiting block capacity.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"waitornot/internal/core"
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

// Send is one update of a round as an observing peer's walk sees it.
type Send struct {
	// TrainedMs is when its training completed: the observer holds its
	// own update from then on.
	TrainedMs float64
	// SentMs is when it left its peer, completion plus propagation: a
	// remote update is readable at the commit boundary after it.
	SentMs float64
	// Own marks the observer's own update.
	Own bool
}

// WalkRound is the one arrival walk of a barriered round and the one
// firing rule. It places each update where the observer can first read
// it (visibleMs; an interval of 0 — latency not modeled, or an instant
// backend — makes a remote update readable when sent), sorts them by
// (time, index), and probes policy at each arrival once the observer's
// own update is in hand: a peer always aggregates its own model. It
// returns the indices of the included updates in arrival order — the
// last is the one that fired the policy (WaitTerms) — and the firing
// time.
//
// A policy with a Deadline fires at the deadline, not at the first
// arrival past it — the asynchronous engine's deadline event, so "when
// a timeout fires" has one definition: with the own update in hand,
// the policy is probed at the deadline before any later arrival is
// handed to it. An arrival at exactly the deadline is in hand; a peer
// whose own update lands after the deadline fires at that landing.
//
// If the policy never fires (only a set without the observer's own
// update can do that), everything is included at the last arrival.
func WalkRound(policy core.Policy, sends []Send, intervalMs float64) ([]int, float64) {
	at := make([]float64, len(sends))
	order := make([]int, len(sends))
	for i, s := range sends {
		at[i], order[i] = s.visibleMs(intervalMs), i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(at[a], at[b]), cmp.Compare(a, b)) })
	deadlineMs := math.Inf(1)
	if policy.Deadline > 0 {
		deadlineMs = float64(policy.Deadline) / float64(time.Millisecond)
	}
	haveSelf := false
	for n, i := range order {
		if haveSelf && at[i] > deadlineMs && policy.Ready(n, len(sends), policy.Deadline) {
			return order[:n], deadlineMs
		}
		haveSelf = haveSelf || sends[i].Own
		if haveSelf && policy.Ready(n+1, len(sends), time.Duration(at[i]*float64(time.Millisecond))) {
			return order[:n+1], at[i]
		}
	}
	return order, at[order[len(order)-1]]
}

// visibleMs is when the observer can first read s: its own update at
// TrainedMs, a remote one at CommitVisibilityMs(SentMs, intervalMs).
func (s Send) visibleMs(intervalMs float64) float64 {
	if s.Own {
		return s.TrainedMs
	}
	return CommitVisibilityMs(s.SentMs, intervalMs)
}

// WaitTerms splits firedMs into four terms of s, the last index
// WalkRound returned at the same intervalMs: its training, its send
// after that (0 for the own update), the wait from the send to its
// visibility (0 for the own update and at an interval of 0), and the
// firing past that, non-zero only when a deadline fired.
func WaitTerms(s Send, intervalMs, firedMs float64) (computeMs, propagateMs, commitMs, idleMs float64) {
	visible := s.visibleMs(intervalMs)
	if !s.Own {
		propagateMs, commitMs = s.SentMs-s.TrainedMs, visible-s.SentMs
	}
	return s.TrainedMs, propagateMs, commitMs, firedMs - visible
}

// CommitVisibilityMs quantizes an update's visibility to the ledger's
// commit interval: an update submitted at submittedMs becomes readable
// at the first block boundary strictly after it, or immediately when
// the interval is zero (the instant backend). WalkRound, the
// asynchronous engine's deliveries and the sharded merge clock all
// quantize by it, so wait policies face the same block-interval delays
// on every schedule.
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

// Validate's range, in which every draw is finite and positive: xrand's
// normals stay within ±8.6, so a lognormal factor lies in [e^-43, e^27].
const distMinMean, distMaxMean, distMaxJitter = 1e-9, 1e12, 4

// Validate rejects distributions that could draw non-positive or
// non-finite values or that name no family.
func (d Dist) Validate() error {
	if d.IsZero() {
		return nil
	}
	if !(d.Mean >= distMinMean && d.Mean <= distMaxMean) {
		return fmt.Errorf("simnet: distribution mean %g outside [%g, %g]", d.Mean, distMinMean, distMaxMean)
	}
	if !(d.Jitter >= 0 && d.Jitter <= distMaxJitter) {
		return fmt.Errorf("simnet: distribution jitter %g outside [0, %g]", d.Jitter, float64(distMaxJitter))
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
