// Package stats is the replication sweep's statistics engine:
// single-pass streaming moments (Welford's algorithm) with
// normal-approximation 95% confidence intervals, and a grid of
// per-cell accumulators keyed by policy × backend × metric — the
// shape the sweep report aggregates over.
//
// # Determinism contract
//
// Welford accumulation is order-sensitive in the last few ulps, so
// callers that promise bit-identical reports (the sweep engine) must
// feed each accumulator in a deterministic order — the repository's
// idiom is seed order within a cell, which the sweep gets for free by
// accumulating from the index-ordered run list after the worker pool
// drains. Nothing in this package reads the clock, global RNG, or map
// iteration order on an output path.
package stats

import (
	"fmt"
	"math"
)

// z95 is the 0.975 quantile of the standard normal distribution: the
// two-sided 95% interval half-width is z95 standard errors under the
// normal approximation (see DESIGN.md §5 for when that approximation
// is honest).
const z95 = 1.959963984540054

// Welford accumulates streaming count / mean / variance / min / max in
// a single pass using Welford's algorithm, which is numerically stable
// where the naive sum-of-squares update cancels catastrophically. The
// zero value is an empty accumulator, ready to use.
type Welford struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		w.min = math.Min(w.min, x)
		w.max = math.Max(w.max, x)
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (the n-1 denominator), 0 when
// fewer than two observations exist — never NaN, so single-sample
// cells render cleanly.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation (0 when n < 2).
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean (0 when n < 2).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval for the mean: z * stderr. It is 0 when n < 2
// (one sample carries no spread information), never NaN.
func (w *Welford) CI95() float64 { return z95 * w.StdErr() }

// Min returns the smallest observation (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// Summary is the frozen snapshot of an accumulator, in the shape
// reports serialize: the per-cell distribution of one sweep metric —
// streaming moments over the cell's replications plus the half-width
// of the normal-approximation 95% confidence interval for the mean (0
// when the cell holds a single sample — never NaN). See DESIGN.md §5
// for the statistics model.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	CI95 float64 `json:"ci95"`
}

// String renders the summary the way the sweep table does: mean ±
// 95% CI half-width at four decimals.
func (s Summary) String() string { return fmt.Sprintf("%.4f ± %.4f", s.Mean, s.CI95) }

// Summary freezes the accumulator.
func (w *Welford) Summary() Summary {
	return Summary{N: w.n, Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max(), CI95: w.CI95()}
}

// Key addresses one accumulator cell of a replication sweep: a wait
// policy × consensus backend × metric name.
type Key struct {
	Policy  string
	Backend string
	Metric  string
}

// Grid is the sweep's cell table: one Welford accumulator per
// policy × backend × metric, read back by key (never iterated, so map
// order reaches no output).
type Grid struct {
	cells map[Key]*Welford
}

// NewGrid returns an empty grid.
func NewGrid() *Grid { return &Grid{cells: map[Key]*Welford{}} }

// Observe folds v into the (policy, backend, metric) cell, creating it
// on first observation.
func (g *Grid) Observe(policy, backend, metric string, v float64) {
	k := Key{Policy: policy, Backend: backend, Metric: metric}
	w, ok := g.cells[k]
	if !ok {
		w = &Welford{}
		g.cells[k] = w
	}
	w.Add(v)
}

// Cell returns the accumulator at (policy, backend, metric), or false
// if nothing was observed there.
func (g *Grid) Cell(policy, backend, metric string) (*Welford, bool) {
	w, ok := g.cells[Key{Policy: policy, Backend: backend, Metric: metric}]
	return w, ok
}
