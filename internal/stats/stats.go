// Package stats is the replication sweep's statistics engine:
// single-pass streaming moments (Welford's algorithm) with Student-t
// 95% confidence intervals — one accumulator per sweep cell and
// metric.
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

// t975 is the 0.975 quantile of Student's t with nu >= 1 degrees of
// freedom (DESIGN.md §5): closed forms at nu = 1 and 2, and from 3 on
// the four-term Cornish–Fisher expansion about the normal quantile z,
// within 0.12% of the tabulated values (worst at nu = 3).
func t975(nu int) float64 {
	switch nu {
	case 1:
		return math.Tan(0.475 * math.Pi)
	case 2:
		return 0.95 / math.Sqrt(0.04875)
	}
	const z = 1.959963984540054 // the standard normal's 0.975 quantile
	const z2 = z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	v := float64(nu)
	return z + (g1+(g2+(g3+g4/v)/v)/v)/v
}

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
// of the Student-t 95% confidence interval for the mean (0
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
// standard deviation (n-1 denominator) and the 95% half-width
// t975(n-1) * Std/sqrt(n) are 0 when n < 2 — one sample carries no spread
// information — never NaN, so single-sample cells render cleanly.
func (w *Welford) Summary() Summary {
	s := Summary{N: w.n, Mean: w.mean, Min: w.min, Max: w.max}
	if w.n >= 2 {
		s.Std = math.Sqrt(w.m2 / float64(w.n-1))
		s.CI95 = t975(w.n-1) * (s.Std / math.Sqrt(float64(w.n)))
	}
	return s
}
