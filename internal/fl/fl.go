// Package fl implements the federated-learning layer shared by the
// centralized (Vanilla) and decentralized (blockchain-based) experiments:
// model updates, FedAvg, the paper's model-combination enumeration, the
// "consider" / "not consider" aggregation policies, and local client
// training.
package fl

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"waitornot/internal/dataset"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/tensor"
	"waitornot/internal/xrand"
)

// Update is one client's local model for one communication round.
type Update struct {
	// Client identifies the producer (paper: "A", "B", "C").
	Client string
	// Round is the communication round the update belongs to.
	Round int
	// Weights is the flat weight vector (see nn.Model.WeightVector).
	Weights []float32
	// NumSamples is the size of the client's training shard; FedAvg
	// weights contributions by it.
	NumSamples int
}

// FedAvg computes the sample-weighted average of the given updates'
// weight vectors — McMahan et al.'s aggregation rule, the one the paper
// uses. It returns an error if the updates are empty or have mismatched
// lengths. The result is freshly allocated (safe to retain); hot loops
// that aggregate every round should reuse an Averager instead.
func FedAvg(updates []*Update) ([]float32, error) {
	return new(Averager).FedAvg(updates)
}

// WeightedFedAvg averages the updates' weight vectors under explicit
// per-update coefficients — the staleness-weighted merge of the
// asynchronous engine, where an update's influence decays with its age.
// Coefficients must be non-negative with a positive sum; they are
// normalized internally. The result is freshly allocated (safe to
// retain); see Averager for the scratch-reusing variant.
func WeightedFedAvg(updates []*Update, coef []float64) ([]float32, error) {
	return new(Averager).WeightedFedAvg(updates, coef)
}

// StalenessWeights is the asynchronous merges' weighting rule, for use
// as WeightedFedAvg coefficients: update i counts for its sample count
// decayed by half per halfLifeMs of age, samples × 2^(-age/halfLife).
// When every decay factor underflows (ages vastly beyond the
// half-life) the rule degrades gracefully to plain sample weighting.
func StalenessWeights(updates []*Update, agesMs []float64, halfLifeMs float64) []float64 {
	coef := make([]float64, len(updates))
	var total float64
	for i, u := range updates {
		coef[i] = float64(u.NumSamples) * math.Exp2(-agesMs[i]/halfLifeMs)
		total += coef[i]
	}
	if total <= 0 {
		for i, u := range updates {
			coef[i] = float64(u.NumSamples)
		}
	}
	return coef
}

// Averager is a FedAvg accumulator that reuses one scratch weight
// vector across calls, eliminating the per-aggregation allocation the
// hot paths (combo searches, per-round merges) used to pay. The slice
// a call returns aliases the scratch: it is valid only until the next
// call on the same Averager, and callers that retain a result (e.g. to
// adopt it as a model) must copy it or use the allocating package
// functions. The zero value is ready to use. Not safe for concurrent
// use — pools hold one Averager per worker.
type Averager struct {
	scratch []float32
	coef    []float64
}

// FedAvg is WeightedFedAvg under each update's sample count: the
// integer total is exact in float64, so update i's coefficient is the
// one division NumSamples_i / total either way.
func (a *Averager) FedAvg(updates []*Update) ([]float32, error) {
	a.coef = slices.Grow(a.coef[:0], len(updates))
	for _, u := range updates {
		if u.NumSamples <= 0 {
			return nil, fmt.Errorf("fl: update %q has non-positive sample count %d", u.Client, u.NumSamples)
		}
		a.coef = append(a.coef, float64(u.NumSamples))
	}
	return a.WeightedFedAvg(updates, a.coef)
}

// WeightedFedAvg validates updates and coefficients and accumulates the
// normalized weighted average into the reused scratch buffer.
func (a *Averager) WeightedFedAvg(updates []*Update, coef []float64) ([]float32, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: FedAvg of zero updates")
	}
	if len(coef) != len(updates) {
		return nil, fmt.Errorf("fl: %d coefficients for %d updates", len(coef), len(updates))
	}
	n := len(updates[0].Weights)
	var total float64
	for i, u := range updates {
		if len(u.Weights) != n {
			return nil, fmt.Errorf("fl: update %q has %d weights, want %d", u.Client, len(u.Weights), n)
		}
		if coef[i] < 0 {
			return nil, fmt.Errorf("fl: update %q has negative coefficient %g", u.Client, coef[i])
		}
		total += coef[i]
	}
	if total <= 0 {
		return nil, fmt.Errorf("fl: coefficients sum to %g, want positive", total)
	}
	if cap(a.scratch) < n {
		a.scratch = make([]float32, n)
	} else {
		a.scratch = a.scratch[:n]
		clear(a.scratch)
	}
	for i, u := range updates {
		tensor.Axpy(float32(coef[i]/total), u.Weights, a.scratch)
	}
	return a.scratch, nil
}

// NewAveragers builds n independent scratch accumulators — one per
// worker of an EvaluateCombosWith pool. n < 1 is treated as 1.
func NewAveragers(n int) []*Averager {
	if n < 1 {
		n = 1
	}
	out := make([]*Averager, n)
	for i := range out {
		out[i] = &Averager{}
	}
	return out
}

// Combo is a set of client indices whose updates are aggregated together.
type Combo []int

// Label renders a combo using the clients' names, e.g. "A,B,C".
func (c Combo) Label(names []string) string {
	out := ""
	for i, idx := range c {
		if i > 0 {
			out += ","
		}
		out += names[idx]
	}
	return out
}

// PaperCombos enumerates the model combinations the paper's decentralized
// experiment evaluates from the perspective of client self among n
// clients: the client's own model alone, every pair of clients, and the
// full set. For n = 3 and self = A this yields exactly the five rows of
// Table II: {A}, {A,B}, {A,C}, {B,C}, {A,B,C}.
func PaperCombos(n, self int) []Combo {
	if self < 0 || self >= n {
		panic(fmt.Sprintf("fl: self %d out of [0,%d)", self, n))
	}
	var out []Combo
	out = append(out, Combo{self})
	// All pairs, those containing self first (matching table order).
	var withSelf, withoutSelf []Combo
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pair := Combo{i, j}
			if i == self || j == self {
				withSelf = append(withSelf, pair)
			} else {
				withoutSelf = append(withoutSelf, pair)
			}
		}
	}
	out = append(out, withSelf...)
	out = append(out, withoutSelf...)
	if n > 2 {
		all := make(Combo, n)
		for i := range all {
			all[i] = i
		}
		out = append(out, all)
	}
	return out
}

// AllCombos enumerates every non-empty subset of n clients (2^n - 1),
// used by the exhaustive "consider" search at the Vanilla aggregator.
func AllCombos(n int) []Combo {
	var out []Combo
	for mask := 1; mask < 1<<uint(n); mask++ {
		var c Combo
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				c = append(c, i)
			}
		}
		out = append(out, c)
	}
	// Deterministic, size-then-lexicographic order so ties break stably.
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) < len(out[b])
		}
		for i := range out[a] {
			if out[a][i] != out[b][i] {
				return out[a][i] < out[b][i]
			}
		}
		return false
	})
	return out
}

// Pick gathers the updates at the combo's indices.
func (c Combo) Pick(updates []*Update) []*Update {
	out := make([]*Update, len(c))
	for i, idx := range c {
		out[i] = updates[idx]
	}
	return out
}

// Evaluator scores a weight vector, typically classification accuracy on
// a held-out selection set. Higher is better.
type Evaluator func(weights []float32) float64

// NewAccuracyEvaluator returns an Evaluator that loads weights into a
// scratch model instance and reports accuracy on the given set. The
// scratch model is reused across calls; the evaluator is not safe for
// concurrent use.
func NewAccuracyEvaluator(id nn.ModelID, s *dataset.Set) Evaluator {
	scratch := id.Build(xrand.New(0))
	return func(weights []float32) float64 {
		if err := scratch.SetWeightVector(weights); err != nil {
			panic(err)
		}
		return nn.Evaluate(scratch, s.X, s.Y, 64)
	}
}

// ComboResult records one evaluated combination. The combination
// searches score combos through per-worker scratch accumulators and
// leave Weights nil — only a chosen combination's weights are
// materialized (recomputed with the allocating FedAvg, which is
// bit-identical: same inputs, same accumulation order).
type ComboResult struct {
	Combo    Combo
	Weights  []float32
	Accuracy float64
}

// EvaluateCombosWith aggregates each combo with FedAvg and scores it,
// returning results in the combos' order, with one evaluator per
// worker: combos are scored concurrently on len(evals) workers, each
// worker reusing its own evaluator's scratch model. Results land in a
// pre-sized slice indexed by combo position, and each evaluation is a
// pure function of the weight vector, so the output is bit-identical
// to the one-evaluator run regardless of scheduling. A single evaluator
// degenerates to the exact sequential loop.
//
// avgs, when non-nil, must hold at least len(evals) accumulators; each
// worker then aggregates into its own reused scratch instead of
// allocating one weight vector per combo (the round-loop hot path).
// Nil avgs allocates a private pool for the call. Either way the
// returned results carry accuracies only (Weights nil).
func EvaluateCombosWith(updates []*Update, combos []Combo, evals []Evaluator, avgs []*Averager) ([]ComboResult, error) {
	if len(evals) == 0 {
		return nil, fmt.Errorf("fl: EvaluateCombosWith needs at least one evaluator")
	}
	if avgs == nil {
		avgs = NewAveragers(len(evals))
	}
	if len(avgs) < len(evals) {
		return nil, fmt.Errorf("fl: %d averagers for %d evaluator workers", len(avgs), len(evals))
	}
	out := make([]ComboResult, len(combos))
	err := par.ForEachWorker(len(evals), len(combos), func(worker, i int) error {
		c := combos[i]
		w, err := avgs[worker].FedAvg(c.Pick(updates))
		if err != nil {
			return fmt.Errorf("fl: combo %v: %w", c, err)
		}
		out[i] = ComboResult{Combo: c, Accuracy: evals[worker](w)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SelectionEvaluators builds n independent accuracy evaluators over the
// same selection set, one scratch model each — the worker pool
// EvaluateCombosWith expects. n < 1 is treated as 1.
func SelectionEvaluators(id nn.ModelID, s *dataset.Set, n int) []Evaluator {
	if n < 1 {
		n = 1
	}
	evals := make([]Evaluator, n)
	for i := range evals {
		evals[i] = NewAccuracyEvaluator(id, s)
	}
	return evals
}

// BestCombo returns the highest-accuracy result; ties go to the earliest
// (deterministic given the combo ordering). It panics on empty input.
func BestCombo(results []ComboResult) ComboResult {
	best := results[0]
	for _, r := range results[1:] {
		if r.Accuracy > best.Accuracy {
			best = r
		}
	}
	return best
}
