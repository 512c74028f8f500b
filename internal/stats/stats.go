// Package stats is the replication sweep's statistics engine:
// single-pass streaming moments (Welford's algorithm) with
// normal-approximation 95% confidence intervals — one accumulator per
// sweep cell and metric.
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

// Summary freezes the accumulator: zeros when empty; the sample
// standard deviation (n-1 denominator) and the 95% half-width z95 *
// Std/sqrt(n) are 0 when n < 2 — one sample carries no spread
// information — never NaN, so single-sample cells render cleanly.
func (w *Welford) Summary() Summary {
	s := Summary{N: w.n, Mean: w.mean, Min: w.min, Max: w.max}
	if w.n >= 2 {
		s.Std = math.Sqrt(w.m2 / float64(w.n-1))
		s.CI95 = z95 * (s.Std / math.Sqrt(float64(w.n)))
	}
	return s
}
