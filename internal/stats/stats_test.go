// Property tests for the streaming statistics engine: the single-pass
// Welford moments must match the textbook two-pass formulas on random
// inputs, the confidence interval must shrink monotonically as
// replications accumulate, merging must equal sequential accumulation,
// and degenerate cells (zero or one sample) must stay NaN-free.
package stats

import (
	"math"
	"math/rand"
	"testing"

	"waitornot/internal/xrand"
)

// twoPass computes mean and sample standard deviation the classic way,
// as the oracle the streaming accumulator is checked against.
func twoPass(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(m2 / float64(len(xs)-1))
}

// close10 compares within a relative tolerance of 1e-10 (absolute for
// values near zero).
func close10(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= 1e-10*scale
}

// TestWelfordMatchesTwoPass: on random inputs of many sizes and
// scales, the streaming mean/std/min/max agree with the two-pass
// oracle.
func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		scale := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
		offset := (rng.Float64() - 0.5) * 2 * scale * 100
		xs := make([]float64, n)
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = offset + rng.NormFloat64()*scale
			w.Add(xs[i])
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		mean, std := twoPass(xs)
		s := w.Summary()
		if s.N != n {
			t.Fatalf("trial %d: N = %d, want %d", trial, s.N, n)
		}
		if !close10(s.Mean, mean) {
			t.Fatalf("trial %d (n=%d): streaming mean %v != two-pass %v", trial, n, s.Mean, mean)
		}
		if !close10(s.Std, std) {
			t.Fatalf("trial %d (n=%d): streaming std %v != two-pass %v", trial, n, s.Std, std)
		}
		if s.Min != lo || s.Max != hi {
			t.Fatalf("trial %d: min/max = %v/%v, want %v/%v", trial, s.Min, s.Max, lo, hi)
		}
	}
}

// TestCIWidthShrinksMonotonically: replicating observations with a
// fixed spread (alternating ±1 around the mean keeps the sample std
// pinned near 1), the 95% CI half-width after each pair is exactly
// t(2k-1)/sqrt(2k-1) — strictly decreasing in the replication count.
func TestCIWidthShrinksMonotonically(t *testing.T) {
	var w Welford
	prev := math.Inf(1)
	for k := 1; k <= 200; k++ {
		w.Add(5 + 1)
		w.Add(5 - 1)
		ci := w.Summary().CI95
		if math.IsNaN(ci) || ci <= 0 {
			t.Fatalf("k=%d: CI95 = %v, want positive and finite", k, ci)
		}
		if ci >= prev {
			t.Fatalf("k=%d: CI95 %v did not shrink from %v", k, ci, prev)
		}
		want := t975(2*k-1) / math.Sqrt(float64(2*k-1))
		if !close10(ci, want) {
			t.Fatalf("k=%d: CI95 = %v, want t(2k-1)/sqrt(2k-1) = %v", k, ci, want)
		}
		prev = ci
	}
}

// TestT975MatchesTables: the quantile is exact at one and two degrees
// of freedom and within 0.12% of the tabulated values from three on.
func TestT975MatchesTables(t *testing.T) {
	for nu, want := range map[int]float64{
		1: 12.706204736174698, 2: 4.302652729749464, 3: 3.182446305284263, 4: 2.776445105197799,
		5: 2.570581835636314, 9: 2.262157162798205, 29: 2.045229642132703,
	} {
		tol := 1e-12
		if nu >= 3 {
			tol = 1.21e-3
		}
		if got := t975(nu); math.Abs(got-want) > tol*want {
			t.Errorf("t975(%d) = %.6f, want %.6f", nu, got, want)
		}
	}
}

// TestCICoverage: for normal samples of n = 3, 5 and 10, the 95%
// interval covers the true mean in 95% ± 1% of 20,000 cells.
func TestCICoverage(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{3, 5, 10} {
		const cells = 20000
		covered := 0
		for c := 0; c < cells; c++ {
			var w Welford
			for i := 0; i < n; i++ {
				w.Add(rng.NormFloat64())
			}
			if s := w.Summary(); math.Abs(s.Mean) <= s.CI95 {
				covered++
			}
		}
		if got := float64(covered) / cells; math.Abs(got-0.95) > 0.01 {
			t.Errorf("n=%d: 95%% interval covered %.4f of %d cells", n, got, cells)
		}
	}
}

// TestDegenerateCellsNaNFree: empty and single-sample accumulators
// must report zeros, never NaN — the sweep renders them directly.
func TestDegenerateCellsNaNFree(t *testing.T) {
	check := func(label string, w *Welford) {
		s := w.Summary()
		for name, v := range map[string]float64{
			"mean": s.Mean, "std": s.Std, "min": s.Min, "max": s.Max, "ci95": s.CI95,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: %s = %v, want finite", label, name, v)
			}
		}
	}
	var empty Welford
	check("empty", &empty)
	if empty.Summary() != (Summary{}) {
		t.Fatalf("empty summary = %+v, want zero", empty.Summary())
	}
	var one Welford
	one.Add(0.875)
	check("single", &one)
	s := one.Summary()
	if s.N != 1 || s.Mean != 0.875 || s.Std != 0 || s.CI95 != 0 || s.Min != 0.875 || s.Max != 0.875 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}
