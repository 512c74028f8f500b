// Package core implements the paper's primary contribution: the
// personalized, asynchronous aggregation engine of the fully coupled
// blockchain-based federated learning system.
//
// Every peer is simultaneously trainer and aggregator. Each round a peer
// receives other peers' model updates (via the blockchain), decides how
// long to wait (the WaitPolicy — the paper's title question), filters
// abnormal models against a local selection set (the paper's "pre-set
// threshold"), enumerates candidate model combinations, and adopts the
// combination that scores best locally. The engine is deliberately pure:
// time is passed in, so the same code runs under the real network stack
// (internal/bfl), the virtual-clock simulator (internal/simnet), and unit
// tests.
package core

import (
	"fmt"
	"sort"
	"time"

	"waitornot/internal/fl"
	"waitornot/internal/xrand"
)

// WaitPolicy answers the paper's question — wait, or not? — for one
// aggregation round. Implementations must be pure functions of their
// arguments so decisions are reproducible.
type WaitPolicy interface {
	// Name labels the policy in results ("wait-all", "first-2", ...).
	Name() string
	// Ready reports whether aggregation should proceed now, given how
	// many of the expected updates have been received (the peer's own
	// update included) and how long the round has been open.
	Ready(received, expected int, elapsed time.Duration) bool
}

// WaitAll is the synchronous baseline: wait for every participant
// (the paper's "not to wait" alternative is any policy below).
type WaitAll struct{}

// Name implements WaitPolicy.
func (WaitAll) Name() string { return "wait-all" }

// Ready implements WaitPolicy.
func (WaitAll) Ready(received, expected int, _ time.Duration) bool {
	return received >= expected
}

// FirstK aggregates as soon as K updates (including the peer's own) have
// arrived — the paper's asynchronous aggregation with a configurable
// level of participation.
type FirstK struct{ K int }

// Name implements WaitPolicy.
func (p FirstK) Name() string { return fmt.Sprintf("first-%d", p.K) }

// Ready implements WaitPolicy.
func (p FirstK) Ready(received, expected int, _ time.Duration) bool {
	k := p.K
	if k > expected {
		k = expected
	}
	return received >= k
}

// Timeout aggregates with whatever has arrived once D has elapsed, or
// immediately when everyone has reported.
type Timeout struct{ D time.Duration }

// Name implements WaitPolicy.
func (p Timeout) Name() string { return fmt.Sprintf("timeout-%s", p.D) }

// Ready implements WaitPolicy.
func (p Timeout) Ready(received, expected int, elapsed time.Duration) bool {
	if received >= expected {
		return true
	}
	return received >= 1 && elapsed >= p.D
}

// KOrTimeout proceeds at K updates or after D, whichever comes first
// (always waiting for at least the peer's own update).
type KOrTimeout struct {
	K int
	D time.Duration
}

// Name implements WaitPolicy.
func (p KOrTimeout) Name() string { return fmt.Sprintf("first-%d-or-%s", p.K, p.D) }

// Ready implements WaitPolicy.
func (p KOrTimeout) Ready(received, expected int, elapsed time.Duration) bool {
	return (FirstK{p.K}).Ready(received, expected, elapsed) ||
		(Timeout{p.D}).Ready(received, expected, elapsed)
}

// Filter rejects abnormal shared models before aggregation, using each
// model's solo accuracy on the peer's selection set. The paper motivates
// this as protection against poisoned (intended) or noisy (unintended)
// models; abnormality need not imply malice.
type Filter struct {
	// MinAccuracy is the absolute floor (the paper's "pre-set
	// threshold"); models scoring below it are ignored. Zero disables.
	MinAccuracy float64
	// MaxBelowBest, when positive, additionally rejects models scoring
	// more than this margin below the best solo score of the round.
	MaxBelowBest float64
}

// FilterResult records one filtering pass for auditability: the paper's
// non-repudiation case needs to point at concrete rejected updates.
type FilterResult struct {
	Kept     []*fl.Update
	Rejected []*fl.Update
	// Scores maps client name to solo selection-set accuracy. Nil when
	// the filter is the zero value: a filter that cannot reject scores
	// nothing.
	Scores map[string]float64
}

// Apply scores every update solo with eval and partitions them into kept
// and rejected. The peer's own update (self) is always kept — a peer
// never distrusts its own training, mirroring the paper's setup. With
// both thresholds zero (the default) no score can change the partition,
// so everything is kept and eval — one selection-set forward pass per
// update — is not called.
func (f Filter) Apply(self string, updates []*fl.Update, eval fl.Evaluator) *FilterResult {
	if f.MinAccuracy == 0 && f.MaxBelowBest == 0 {
		return &FilterResult{Kept: updates}
	}
	res := &FilterResult{Scores: make(map[string]float64, len(updates))}
	best := 0.0
	for _, u := range updates {
		score := eval(u.Weights)
		res.Scores[u.Client] = score
		if score > best {
			best = score
		}
	}
	for _, u := range updates {
		score := res.Scores[u.Client]
		keep := u.Client == self ||
			((f.MinAccuracy == 0 || score >= f.MinAccuracy) &&
				(f.MaxBelowBest == 0 || score >= best-f.MaxBelowBest))
		if keep {
			res.Kept = append(res.Kept, u)
		} else {
			res.Rejected = append(res.Rejected, u)
		}
	}
	return res
}

// Decision is the outcome of one peer's aggregation for one round.
type Decision struct {
	Round int
	// KeptClients are the post-filter update owners, in the order combo
	// indices refer to (sorted by client name).
	KeptClients []string
	// Waited is how many updates were on hand when aggregation ran.
	Waited int
	// Expected is the full participant count.
	Expected int
	// WaitTime is how long the peer waited before its policy fired.
	WaitTime time.Duration
	// RejectedClients lists updates discarded by the filter.
	RejectedClients []string
	// ComboResults holds every evaluated combination, in enumeration
	// order (the rows of Tables II-IV). Only accuracies: the search
	// scores combos through reused scratch accumulators, so per-row
	// Weights stay nil.
	ComboResults []fl.ComboResult
	// Chosen is the adopted combination, with its weight vector
	// materialized (freshly allocated — callers retain it).
	Chosen fl.ComboResult
}

// Aggregator is one peer's personalized aggregation engine.
type Aggregator struct {
	// Self is this peer's client name.
	Self string
	// Policy decides when to stop waiting.
	Policy WaitPolicy
	// Filter screens abnormal models; zero value keeps everything.
	Filter Filter
	// Eval scores weight vectors on the peer's selection set.
	Eval fl.Evaluator
	// WorkerEvals, when set, evaluates candidate combinations
	// concurrently — one independent evaluator (own scratch model)
	// per worker. Each evaluator must be pure given a weight vector
	// and agree with Eval, so decisions are bit-identical to the
	// sequential search. Nil or length 1 keeps the sequential path.
	WorkerEvals []fl.Evaluator
	// MaxComboPeers, when > 0, caps the personalized combination
	// search: if more than this many updates survive the filter, the
	// aggregator skips enumeration (quadratic in the kept count) and
	// adopts the sample-weighted FedAvg of everything kept. This is the
	// cross-device regime — with dozens of sampled participants per
	// round, the paper's per-pair table search is neither meaningful
	// nor tractable. 0 (the default) always runs the full search.
	MaxComboPeers int

	// avgs are the per-worker scratch accumulators the combination
	// search aggregates through, reused across rounds (lazily sized to
	// the evaluator pool).
	avgs []*fl.Averager

	rng *xrand.RNG
}

// NewAggregator builds an engine. rng drives tie-breaking between
// equally scoring combinations (the paper: "the device selects one of
// them randomly").
func NewAggregator(self string, policy WaitPolicy, filter Filter, eval fl.Evaluator, rng *xrand.RNG) *Aggregator {
	if policy == nil {
		policy = WaitAll{}
	}
	return &Aggregator{Self: self, Policy: policy, Filter: filter, Eval: eval, rng: rng}
}

// Decide filters the available updates, enumerates the paper's model
// combinations restricted to what survived, evaluates each on the peer's
// selection set, and picks the best (ties broken uniformly at random).
// updates must contain the peer's own update.
func (a *Aggregator) Decide(round int, updates []*fl.Update, waited time.Duration, expected int) (*Decision, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("core: %s has no updates to aggregate in round %d", a.Self, round)
	}
	// Deterministic processing order regardless of arrival order.
	sorted := make([]*fl.Update, len(updates))
	copy(sorted, updates)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Client < sorted[j].Client })

	fres := a.Filter.Apply(a.Self, sorted, a.Eval)
	kept := fres.Kept
	selfIdx := -1
	for i, u := range kept {
		if u.Client == a.Self {
			selfIdx = i
			break
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("core: %s's own update missing from round %d", a.Self, round)
	}

	keptNames := make([]string, len(kept))
	for i, u := range kept {
		keptNames[i] = u.Client
	}

	if a.MaxComboPeers > 0 && len(kept) > a.MaxComboPeers {
		all := make(fl.Combo, len(kept))
		for i := range all {
			all[i] = i
		}
		w, err := fl.FedAvg(kept)
		if err != nil {
			return nil, fmt.Errorf("core: %s round %d: %w", a.Self, round, err)
		}
		d := &Decision{
			Round:       round,
			KeptClients: keptNames,
			Waited:      len(updates),
			Expected:    expected,
			WaitTime:    waited,
			Chosen:      fl.ComboResult{Combo: all, Accuracy: a.Eval(w), Weights: w},
		}
		for _, u := range fres.Rejected {
			d.RejectedClients = append(d.RejectedClients, u.Client)
		}
		return d, nil
	}

	combos := fl.PaperCombos(len(kept), selfIdx)
	evals := a.WorkerEvals
	if len(evals) == 0 {
		evals = []fl.Evaluator{a.Eval}
	}
	if len(a.avgs) < len(evals) {
		a.avgs = fl.NewAveragers(len(evals))
	}
	// An armed filter has scored combos[0] = {self} already: FedAvg of
	// one update is +0 + 1·w, which differs from w only in the sign of
	// zeros, and a forward pass cannot see that sign (every accumulator
	// starts at +0; +0 + ±0 = +0 and x + ±0 = x for any other x).
	var results []fl.ComboResult
	if fres.Scores != nil {
		results = []fl.ComboResult{{Combo: combos[0], Accuracy: fres.Scores[a.Self]}}
		combos = combos[1:]
	}
	rest, err := fl.EvaluateCombosWith(kept, combos, evals, a.avgs)
	if err != nil {
		return nil, fmt.Errorf("core: %s round %d: %w", a.Self, round, err)
	}
	results = append(results, rest...)

	// Pick the best; break exact ties randomly, as the paper specifies.
	bestAcc := results[0].Accuracy
	for _, r := range results[1:] {
		if r.Accuracy > bestAcc {
			bestAcc = r.Accuracy
		}
	}
	var tied []int
	for i, r := range results {
		if r.Accuracy == bestAcc {
			tied = append(tied, i)
		}
	}
	choice := tied[0]
	if len(tied) > 1 && a.rng != nil {
		choice = tied[a.rng.Intn(len(tied))]
	}
	// Materialize only the winner's weights: same inputs and
	// accumulation order as the search's scratch pass, so the vector is
	// bit-identical — but freshly allocated, because the decision (and
	// the peer that adopts it) retains it across rounds.
	chosen := results[choice]
	w, err := fl.FedAvg(chosen.Combo.Pick(kept))
	if err != nil {
		return nil, fmt.Errorf("core: %s round %d: %w", a.Self, round, err)
	}
	chosen.Weights = w

	d := &Decision{
		Round:        round,
		KeptClients:  keptNames,
		Waited:       len(updates),
		Expected:     expected,
		WaitTime:     waited,
		ComboResults: results,
		Chosen:       chosen,
	}
	for _, u := range fres.Rejected {
		d.RejectedClients = append(d.RejectedClients, u.Client)
	}
	return d, nil
}
