package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("got %d identical outputs from different seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive("dataset")
	b := parent.Derive("mining")
	c := parent.Derive("dataset")
	if a.Uint64() != c.Uint64() {
		t.Fatal("same label must derive the same stream")
	}
	if a.Uint64() == b.Uint64() {
		t.Fatal("different labels should be decorrelated")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	p1, p2 := New(9), New(9)
	_ = p1.Derive("x")
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Derive must not consume parent state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

// TestNormFloat64SincosBitEqual: NormFloat64's one math.Sincos call
// draws exactly the bits of the separate math.Sin and math.Cos calls it
// replaced, over 10^7 stream draws. Every dataset, and with it every
// golden, is built from this stream.
func TestNormFloat64SincosBitEqual(t *testing.T) {
	const n = 10_000_000
	// ref is NormFloat64's body before Sincos, on its own generator.
	ref := New(2024)
	var refSpare float64
	refHas := false
	refNorm := func() float64 {
		if refHas {
			refHas = false
			return refSpare
		}
		u := 1.0 - ref.Float64()
		v := ref.Float64()
		mag := math.Sqrt(-2.0 * math.Log(u))
		refSpare = mag * math.Sin(2*math.Pi*v)
		refHas = true
		return mag * math.Cos(2*math.Pi*v)
	}
	r := New(2024)
	for i := 0; i < n; i++ {
		if got, want := r.NormFloat64(), refNorm(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Sincos gives %v (%#x), Sin+Cos %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// sameFuture reports whether a and b are at the same stream position:
// equal values, and the same next 100 normals and uniforms.
func sameFuture(a, b RNG) bool {
	if a != b {
		return false
	}
	for i := 0; i < 100; i++ {
		if math.Float64bits(a.NormFloat64()) != math.Float64bits(b.NormFloat64()) || a.Uint64() != b.Uint64() {
			return false
		}
	}
	return true
}

// TestSkipMatchesDraws: Skip(k) is exactly k Uint64 draws, for k whose
// k·gamma wraps 2^64 many times over, with a pending spare left alone.
func TestSkipMatchesDraws(t *testing.T) {
	pick := New(99)
	for trial := 0; trial < 200; trial++ {
		k := pick.Intn(5000)
		a := New(pick.Uint64())
		if trial%2 == 1 {
			a.NormFloat64() // leave a spare pending
		}
		b := *a
		for i := 0; i < k; i++ {
			a.Uint64()
		}
		b.Skip(k)
		if !sameFuture(*a, b) {
			t.Fatalf("trial %d: Skip(%d) is not %d Uint64 draws", trial, k, k)
		}
	}
}

// TestSkipNormalsMatchesDraws: SkipNormals(n) is exactly n NormFloat64
// calls — same value, same spare, same next draws — from a fresh state
// and from a pending spare, for even and odd n (3076 and 3077 are a
// default SynthCIFAR sample's normal count and one more), and leaves
// the RNG where Normals of length n does on each body.
func TestSkipNormalsMatchesDraws(t *testing.T) {
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			useBody(t, body.wide)
			for _, pending := range []bool{false, true} {
				for _, n := range []int{0, 1, 2, 3, 1024, 3076, 3077} {
					a := New(uint64(7 + n))
					if pending {
						a.NormFloat64()
					}
					b, c := *a, *a
					for i := 0; i < n; i++ {
						a.NormFloat64()
					}
					b.SkipNormals(n)
					c.Normals(make([]float64, n))
					if !sameFuture(*a, b) || !sameFuture(b, c) {
						t.Errorf("pending spare %v: SkipNormals(%d), %d NormFloat64 calls and Normals of %d end apart", pending, n, n, n)
					}
				}
			}
		})
	}
}

// TestSkipPanicsOnNegative: a negative count is a programming error, as
// Intn(0) is. SkipNormals(-3) used to rewind two Uint64 draws, which is
// not the inverse of three normals.
func TestSkipPanicsOnNegative(t *testing.T) {
	for name, skip := range map[string]func(*RNG){
		"Skip(-1)":        func(r *RNG) { r.Skip(-1) },
		"SkipNormals(-1)": func(r *RNG) { r.SkipNormals(-1) },
		"SkipNormals(-3)": func(r *RNG) { r.SkipNormals(-3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			skip(New(1))
		}()
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	check := func(seed uint64) bool {
		r := New(seed)
		s := []int{1, 2, 3, 4, 5, 6, 7, 8}
		sum := 0
		for _, v := range s {
			sum += v
		}
		r.ShuffleInts(s)
		got := 0
		for _, v := range s {
			got += v
		}
		return got == sum && len(s) == 8
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

// BenchmarkNormals: one 1,024-wide plane of normals on each body;
// compare with 1,024 times BenchmarkNormFloat64.
func BenchmarkNormals(b *testing.B) {
	for _, body := range bodies {
		b.Run(body.name, func(b *testing.B) {
			useBody(b, body.wide)
			r := New(1)
			dst := make([]float64, 1024)
			for b.Loop() {
				r.Normals(dst)
			}
		})
	}
}
