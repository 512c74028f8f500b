// RoundEngine: the barriered round machinery, which owns no clock —
// every commit instant is an argument. It has two drivers:
// runDecentralized (runner.go) lays rounds at the backend's own
// cadence, and the sharded orchestrator (internal/shard) drives many
// engines — one per shard, each with its own ledger backend and wait
// policy — from one shared vclock. Both are callers of the same
// RegisterAt / RunRoundAt / Finish, so a single-shard hierarchy is
// bit-identical to the flat run by construction, not by agreement
// between two loops.
package bfl

import (
	"context"
	"fmt"

	"waitornot/internal/core"
	"waitornot/internal/fl"
)

// RoundEngine exposes one assembled decentralized experiment —
// peers, data, ledger backend — as explicitly timestamped round steps.
// The caller owns time: RegisterAt and RunRoundAt take the commit
// instants (whole virtual milliseconds) instead of advancing a clock,
// so any scheduler that produces the flat runner's timestamps
// reproduces the flat runner's bits.
type RoundEngine struct {
	e   *engine
	res *Result
}

// RoundSummary condenses one committed round for a supervising
// orchestrator (shard controllers, adaptive policies).
type RoundSummary struct {
	Round int
	// MaxWaitMs is the slowest peer's policy wait — what the round cost
	// on the modeled time axis.
	MaxWaitMs float64
	// MeanIncluded is the mean number of updates admitted per peer.
	MeanIncluded float64
}

// NewRoundEngine assembles the experiment (data shards, peers, keys,
// ledger) without running anything.
func NewRoundEngine(cfg Config) (*RoundEngine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &RoundEngine{e: e, res: e.newResult()}, nil
}

// Config returns the fully defaulted configuration.
func (r *RoundEngine) Config() Config { return r.e.cfg }

// CommitStepMs is the backend's commit cadence in whole virtual
// milliseconds — the engine's native tick. Round k's submission and
// decision blocks land at 2k and 2k+1 ticks (registration at tick 1),
// so a caller laying rounds on its own clock with multiples of this
// step reproduces the flat timeline exactly (whole-ms floats make k*step
// and repeated addition agree bit-for-bit).
func (r *RoundEngine) CommitStepMs() float64 { return r.e.clockStep }

// BackendName reports the resolved ledger backend.
func (r *RoundEngine) BackendName() string { return r.e.be.Name() }

// TotalSamples is the fleet's summed training-shard size — the
// engine's FedAvg weight in a cross-shard merge.
func (r *RoundEngine) TotalSamples() int {
	total := 0
	for _, p := range r.e.peers {
		total += p.client.Train.Len()
	}
	return total
}

// RegisterAt submits every peer's registration transaction and commits
// the genesis batch at the given instant.
func (r *RoundEngine) RegisterAt(tsMs float64) error { return r.e.registerAt(tsMs) }

// RunRoundAt executes one full barriered round — train, submit,
// commit at subTsMs, policy-gated decisions, commit at decTsMs — and
// returns its summary. Rounds must be executed in order starting at 1,
// with strictly increasing commit instants.
func (r *RoundEngine) RunRoundAt(ctx context.Context, round int, subTsMs, decTsMs float64) (RoundSummary, error) {
	if err := ctx.Err(); err != nil {
		return RoundSummary{}, err
	}
	if err := r.e.runRound(ctx, r.res, round, subTsMs, decTsMs); err != nil {
		return RoundSummary{}, err
	}
	// Summarize over the round's participants. Result rows are ragged
	// under ClientFraction (a peer's slice only grows in rounds it was
	// sampled), so each participant's freshest entry — appended by the
	// runRound call above — is this round's record.
	slots := r.e.roundParticipants(round)
	sum := RoundSummary{Round: round}
	for _, s := range slots {
		rr := r.res.Rounds[s]
		st := rr[len(rr)-1]
		if st.WaitMs > sum.MaxWaitMs {
			sum.MaxWaitMs = st.WaitMs
		}
		sum.MeanIncluded += float64(st.Included)
	}
	sum.MeanIncluded /= float64(len(slots))
	return sum, nil
}

// SetPolicy swaps the wait policy every peer applies from the next
// round on — the adaptive shard controller's lever. (Policies gate
// which arrivals a round admits before aggregation; the aggregation
// itself is policy-free, so mid-run swaps are safe.)
func (r *RoundEngine) SetPolicy(p core.Policy) {
	r.e.cfg.Policy = p
}

// Updates snapshots every peer's currently adopted model as FedAvg
// inputs (weights aliased, not copied — callers must not mutate).
func (r *RoundEngine) Updates() []*fl.Update {
	out := make([]*fl.Update, len(r.e.peers))
	for i, p := range r.e.peers {
		out[i] = &fl.Update{Client: p.name, Weights: p.adopted, NumSamples: p.client.Train.Len()}
	}
	return out
}

// AdoptAll points every peer's next-round starting weights at the
// given vector — the cross-shard merge pushing the global model down.
// Peers copy on adoption, so sharing one slice is safe (the flat
// runner seeds all peers with one initial vector the same way); the
// caller must not mutate it afterwards.
func (r *RoundEngine) AdoptAll(global []float32) error {
	if len(global) != len(r.e.w.initial) {
		return fmt.Errorf("bfl: adopting %d weights into a %d-weight model", len(global), len(r.e.w.initial))
	}
	for _, p := range r.e.peers {
		p.adopted, p.adoptedKey = global, fl.Key{}
	}
	return nil
}

// Finish stamps the chain footprint and returns the accumulated
// result. The engine must not be driven further.
func (r *RoundEngine) Finish() *Result {
	r.res.Chain = r.e.chainStats()
	return r.res
}
