// Package fl holds the federated-learning primitives both experiments in
// internal/bfl are built from — the centralized baseline (RunVanilla)
// and the decentralized blockchain deployment: model updates, FedAvg,
// the paper's model-combination enumeration and search, accuracy
// evaluators, and local client training.
package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"waitornot/internal/dataset"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/tensor"
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
	// Key names Weights by provenance (zero: unnamed).
	Key Key
}

// Key names a weight vector by what it was built from, not by its
// bits: two vectors with one nonzero Key are bit-identical. The zero
// Key names nothing, so nothing is shared under it.
type Key [32]byte

// MergeKey is the Key of the average of updates under coef (nil: their
// sample counts, as FedAvg): a digest of each member's Key and the bits
// of the factor WeightedFedAvg scales it by, in order — what the sum's
// bits are a function of. Zero when any member is unnamed.
func MergeKey(updates []*Update, coef []float64) Key {
	c := func(i int) float64 {
		if coef == nil {
			return float64(updates[i].NumSamples)
		}
		return coef[i]
	}
	var total float64
	for i, u := range updates {
		if u.Key == (Key{}) {
			return Key{}
		}
		total += c(i)
	}
	buf := make([]byte, 0, 36*len(updates))
	for i, u := range updates {
		buf = binary.LittleEndian.AppendUint32(append(buf, u.Key[:]...), math.Float32bits(float32(c(i)/total)))
	}
	return sha256.Sum256(buf)
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
// use — a Scratch lends one per combination.
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
// a held-out selection set. Higher is better. key names the weights
// (zero: unnamed); weights builds them, so a memoizing evaluator that
// holds key's score already need not.
type Evaluator func(key Key, weights func() []float32) float64

// Vector hands an Evaluator weights already built.
func Vector(w []float32) func() []float32 { return func() []float32 { return w } }

// Scratch lends the models, trainers and averagers that training and
// scoring take, for one architecture, from mutex-guarded free lists a
// world shares: each builds only when all of its kind are lent out, so
// n concurrent callers build at most n. Trainings and scores are pure
// functions of their inputs: the scratch moves no bit. The zero
// Scratch lends averagers only.
type Scratch struct {
	id       nn.ModelID
	models   freeList[*nn.Model]
	trainers freeList[*trainer]
	avgs     freeList[*Averager]
}

// NewScratch is an empty Scratch for architecture id.
func NewScratch(id nn.ModelID) *Scratch { return &Scratch{id: id} }

// model borrows a model, whose weights every borrower overwrites.
func (sc *Scratch) model() *nn.Model {
	return sc.models.take(func() *nn.Model { return sc.id.Build(nil) })
}

// Train is c's local training of round from weights, in a borrowed model
// and trainer (c.Model unused): LocalTrain's bits. Safe for concurrent use.
func (sc *Scratch) Train(c *Client, weights []float32, round int) (*Update, error) {
	m, t := sc.model(), sc.trainers.take(func() *trainer { return new(trainer) })
	defer sc.models.give(m)
	defer sc.trainers.give(t)
	if err := m.SetWeightVector(weights); err != nil {
		return nil, err
	}
	return t.train(c, m, round), nil
}

// MulAdds is the architecture's forward multiply-adds per sample.
func (sc *Scratch) MulAdds() int {
	m := sc.model()
	defer sc.models.give(m)
	return m.MulAdds()
}

// Evaluator is accuracy on s, each call loading the weights into a
// borrowed model. It is safe for concurrent use.
func (sc *Scratch) Evaluator(s *dataset.Set) Evaluator {
	return func(_ Key, weights func() []float32) float64 {
		m := sc.model()
		defer sc.models.give(m)
		if err := m.SetWeightVector(weights()); err != nil {
			panic(err)
		}
		return nn.Evaluate(m, s.X, s.Y, 64)
	}
}

// freeList lends values, building one only when none is free.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

func (l *freeList[T]) take(build func() T) T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	return build()
}

func (l *freeList[T]) give(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// ComboResult records one evaluated combination. The combination
// searches score combos through borrowed scratch accumulators and
// leave Weights nil — only a chosen combination's weights are
// materialized (recomputed outside the scratch by FedAvg, which is
// bit-identical: same inputs, same accumulation order).
type ComboResult struct {
	Combo    Combo
	Weights  []float32
	Key      Key // names Weights, once materialized
	Accuracy float64
}

// EvaluateCombos scores each combo's FedAvg with eval on up to workers
// goroutines (eval must then be safe for concurrent use), averaging a
// combination, in an averager borrowed for it, only if eval asks for
// its weights. Results land in the combos' order and carry accuracies
// only (Weights nil). Each score is a pure function of the
// combination's weights, so the results are bit-identical at any
// worker count.
func (sc *Scratch) EvaluateCombos(updates []*Update, combos []Combo, eval Evaluator, workers int) ([]ComboResult, error) {
	// Every combination of valid updates averages without error.
	for _, u := range updates {
		if u.NumSamples <= 0 || len(u.Weights) != len(updates[0].Weights) {
			return nil, fmt.Errorf("fl: update %q (%d samples, %d weights) cannot be averaged", u.Client, u.NumSamples, len(u.Weights))
		}
	}
	return par.Map(workers, len(combos), func(i int) (ComboResult, error) {
		picked := combos[i].Pick(updates)
		var a *Averager
		acc := eval(MergeKey(picked, nil), func() []float32 {
			a = sc.avgs.take(func() *Averager { return new(Averager) })
			w, _ := a.FedAvg(picked)
			return w
		})
		if a != nil {
			sc.avgs.give(a)
		}
		return ComboResult{Combo: combos[i], Accuracy: acc}, nil
	})
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
