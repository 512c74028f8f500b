// Package core implements the paper's primary contribution: the
// personalized, asynchronous aggregation engine of the fully coupled
// blockchain-based federated learning system.
//
// Every peer is simultaneously trainer and aggregator. Each round a peer
// receives other peers' model updates (via the blockchain), decides how
// long to wait (the Policy — the paper's title question), filters
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

// Policy answers the paper's question — wait, or not? — for one
// aggregation round as a block rule's two numbers: a count of updates
// and a timer. The zero Policy waits for every participant.
type Policy struct {
	// K fires at min(K, expected) updates, the peer's own included —
	// the paper's asynchronous aggregation; 0 means every participant.
	K int
	// Deadline fires with whatever has arrived, at least the peer's own
	// update, once the round has been open this long; 0 means none.
	Deadline time.Duration
}

// WaitAll is the synchronous baseline: the zero Policy.
type WaitAll = Policy

// Name labels the policy in results: "wait-all", "first-K",
// "timeout-D" or "first-K-or-D".
func (p Policy) Name() string {
	switch {
	case p.Deadline == 0 && p.K == 0:
		return "wait-all"
	case p.Deadline == 0:
		return fmt.Sprintf("first-%d", p.K)
	case p.K == 0:
		return fmt.Sprintf("timeout-%s", p.Deadline)
	}
	return fmt.Sprintf("first-%d-or-%s", p.K, p.Deadline)
}

// Validate rejects a policy with a negative count or deadline: the
// engine would read either as "not set", a second spelling of a value
// that already has one.
func (p Policy) Validate() error {
	if p.K < 0 {
		return fmt.Errorf("core: policy K %d is negative", p.K)
	}
	if p.Deadline < 0 {
		return fmt.Errorf("core: policy deadline %v is negative", p.Deadline)
	}
	return nil
}

// Ready reports whether aggregation should proceed now, given how many
// of the expected updates have been received (the peer's own update
// included) and how long the round has been open. It is a pure
// function of its arguments, so decisions are reproducible.
func (p Policy) Ready(received, expected int, elapsed time.Duration) bool {
	k := expected
	if p.K > 0 && p.K < expected {
		k = p.K
	}
	return received >= k || p.Deadline > 0 && received >= 1 && elapsed >= p.Deadline
}

// Filter rejects abnormal shared models before aggregation, using each
// model's solo accuracy on the peer's selection set. The paper motivates
// this as protection against poisoned (intended) or noisy (unintended)
// models; abnormality need not imply malice.
type Filter struct {
	// MaxBelowBest, when positive, rejects models scoring more than
	// this margin below the best solo score of the round. Zero
	// disables.
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
// a zero margin (the default) no score can change the partition,
// so everything is kept and eval — one selection-set forward pass per
// update — is not called.
func (f Filter) Apply(self string, updates []*fl.Update, eval fl.Evaluator) *FilterResult {
	if f.MaxBelowBest == 0 {
		return &FilterResult{Kept: updates}
	}
	res := &FilterResult{Scores: make(map[string]float64, len(updates))}
	best := 0.0
	for _, u := range updates {
		score := eval(u.Key, fl.Vector(u.Weights))
		res.Scores[u.Client] = score
		if score > best {
			best = score
		}
	}
	for _, u := range updates {
		score := res.Scores[u.Client]
		keep := u.Client == self || score >= best-f.MaxBelowBest
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
	// materialized (by Aggregator.Average: callers may retain it but
	// not write it) and keyed.
	Chosen fl.ComboResult
}

// Aggregator is one peer's personalized aggregation engine.
type Aggregator struct {
	// Self is this peer's client name.
	Self string
	// Filter screens abnormal models; zero value keeps everything.
	Filter Filter
	// Eval scores weight vectors on the peer's selection set, each
	// under its key: an update's in the filter, the combination's
	// (fl.MergeKey) in the search and for the chosen model.
	Eval fl.Evaluator
	// Workers, above 1, fans the combination search out on that many
	// goroutines, and Eval must then be safe for concurrent use. Eval
	// is pure given a weight vector, so decisions are bit-identical at
	// any value; 0 and 1 are the sequential search.
	Workers int
	// Scratch lends the search its averagers; nil: Decide builds one.
	Scratch *fl.Scratch
	// Average materializes the chosen combination's weights, picked's
	// FedAvg, which key names (NewAggregator's: a fresh fl.FedAvg);
	// what it returns may be shared read-only across aggregators.
	Average func(round int, key fl.Key, picked []*fl.Update) ([]float32, error)
	// MaxComboPeers, when > 0, caps the personalized combination
	// search: if more than this many updates survive the filter, the
	// aggregator skips enumeration (quadratic in the kept count) and
	// adopts the sample-weighted FedAvg of everything kept. This is the
	// cross-device regime — with dozens of sampled participants per
	// round, the paper's per-pair table search is neither meaningful
	// nor tractable. 0 (the default) always runs the full search.
	MaxComboPeers int

	rng *xrand.RNG
}

// NewAggregator builds an engine. rng drives tie-breaking between
// equally scoring combinations (the paper: "the device selects one of
// them randomly"). The policy argument is unread: the caller fires the
// wait policy before Decide, which aggregates whatever it is handed.
func NewAggregator(self string, _ Policy, filter Filter, eval fl.Evaluator, rng *xrand.RNG) *Aggregator {
	return &Aggregator{Self: self, Filter: filter, Eval: eval, rng: rng,
		Average: func(_ int, _ fl.Key, picked []*fl.Update) ([]float32, error) { return fl.FedAvg(picked) }}
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
		k := fl.MergeKey(kept, nil)
		w, err := a.Average(round, k, kept)
		if err != nil {
			return nil, fmt.Errorf("core: %s round %d: %w", a.Self, round, err)
		}
		d := &Decision{
			Round:       round,
			KeptClients: keptNames,
			Waited:      len(updates),
			Expected:    expected,
			WaitTime:    waited,
			Chosen:      fl.ComboResult{Combo: all, Accuracy: a.Eval(k, fl.Vector(w)), Weights: w, Key: k},
		}
		for _, u := range fres.Rejected {
			d.RejectedClients = append(d.RejectedClients, u.Client)
		}
		return d, nil
	}

	combos := fl.PaperCombos(len(kept), selfIdx)
	if a.Scratch == nil {
		a.Scratch = new(fl.Scratch)
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
	rest, err := a.Scratch.EvaluateCombos(kept, combos, a.Eval, max(a.Workers, 1))
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
	// bit-identical — but not in a scratch, because the decision (and
	// the peer that adopts it) retains it across rounds.
	chosen := results[choice]
	picked := chosen.Combo.Pick(kept)
	chosen.Key = fl.MergeKey(picked, nil)
	if chosen.Weights, err = a.Average(round, chosen.Key, picked); err != nil {
		return nil, fmt.Errorf("core: %s round %d: %w", a.Self, round, err)
	}

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
