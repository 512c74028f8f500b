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
		if w.N() != n {
			t.Fatalf("trial %d: N = %d, want %d", trial, w.N(), n)
		}
		if !close10(w.Mean(), mean) {
			t.Fatalf("trial %d (n=%d): streaming mean %v != two-pass %v", trial, n, w.Mean(), mean)
		}
		if !close10(w.Std(), std) {
			t.Fatalf("trial %d (n=%d): streaming std %v != two-pass %v", trial, n, w.Std(), std)
		}
		if w.Min() != lo || w.Max() != hi {
			t.Fatalf("trial %d: min/max = %v/%v, want %v/%v", trial, w.Min(), w.Max(), lo, hi)
		}
	}
}

// TestCIWidthShrinksMonotonically: replicating observations with a
// fixed spread (alternating ±1 around the mean keeps the sample std
// pinned near 1), the 95% CI half-width after each pair is exactly
// z/sqrt(2k-1) — strictly decreasing in the replication count.
func TestCIWidthShrinksMonotonically(t *testing.T) {
	var w Welford
	prev := math.Inf(1)
	for k := 1; k <= 200; k++ {
		w.Add(5 + 1)
		w.Add(5 - 1)
		ci := w.CI95()
		if math.IsNaN(ci) || ci <= 0 {
			t.Fatalf("k=%d: CI95 = %v, want positive and finite", k, ci)
		}
		if ci >= prev {
			t.Fatalf("k=%d: CI95 %v did not shrink from %v", k, ci, prev)
		}
		want := z95 / math.Sqrt(float64(2*k-1))
		if !close10(ci, want) {
			t.Fatalf("k=%d: CI95 = %v, want z/sqrt(2k-1) = %v", k, ci, want)
		}
		prev = ci
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

// TestGridOrderAndRouting: observations route to the right (policy,
// backend, metric) cell whatever order they arrive in, and lookups of
// unobserved cells miss cleanly.
func TestGridOrderAndRouting(t *testing.T) {
	g := NewGrid()
	g.Observe("wait-all", "pow", "accuracy", 0.9)
	g.Observe("wait-all", "pow", "wait_ms", 1000)
	g.Observe("first-1", "instant", "accuracy", 0.8)
	g.Observe("wait-all", "pow", "accuracy", 0.7)

	for _, k := range []Key{
		{"wait-all", "pow", "wait_ms"},
		{"first-1", "instant", "accuracy"},
	} {
		if w, ok := g.Cell(k.Policy, k.Backend, k.Metric); !ok || w.N() != 1 {
			t.Fatalf("cell %v = %+v ok=%v, want one observation", k, w, ok)
		}
	}
	acc, ok := g.Cell("wait-all", "pow", "accuracy")
	if !ok || acc.N() != 2 || !close10(acc.Mean(), 0.8) {
		t.Fatalf("accuracy cell = %+v ok=%v", acc, ok)
	}
	if _, ok := g.Cell("wait-all", "pow", "no-such-metric"); ok {
		t.Fatal("unobserved cell reported present")
	}
}
