// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used across the repository.
//
// Every stochastic component (dataset synthesis, weight initialization,
// mining jitter, network latency, shuffling) draws from its own RNG stream
// derived from a single experiment seed, so complete experiments are
// reproducible bit-for-bit regardless of goroutine scheduling. The
// generator is splitmix64, which is tiny, passes BigCrush, and — unlike
// math/rand's source — has a stable, documented algorithm we control.
package xrand

import "math"

// RNG is a deterministic splitmix64 pseudo-random number generator.
// It is NOT safe for concurrent use; derive one stream per goroutine
// with Derive instead of sharing.
//
// An RNG value is its position in the stream: a consumed spare is zeroed
// rather than left stale, so two copies at the same position are ==,
// and a stored copy resumes the stream from there.
type RNG struct {
	state uint64

	// Box-Muller cache for NormFloat64.
	hasSpare bool
	spare    float64
}

// gamma is splitmix64's state increment: after k draws the state is
// s0 + k·gamma (mod 2^64).
const gamma = 0x9e3779b97f4a7c15

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Derive returns a new independent RNG whose stream is a pure function of
// the parent's seed state and the label. Deriving with the same label twice
// yields identical streams; different labels yield decorrelated streams.
// Derive does not advance the parent's state.
func (r *RNG) Derive(label string) *RNG {
	// FNV-1a over the label, folded into the parent state through an
	// extra splitmix64 scramble.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(mix(r.state ^ mix(h)))
}

func mix(z uint64) uint64 {
	z += gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection-free variant is overkill here;
	// plain modulo bias is < 2^-32 for the small n used in experiments,
	// but use 64-bit multiply-shift anyway since it is branch-free.
	return int((r.Uint64() >> 11) % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normally distributed float64 using the
// Box-Muller transform (polar form is avoided to keep the stream length
// deterministic: exactly one Uint64 pair per two variates).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		s := r.spare
		r.hasSpare, r.spare = false, 0
		return s
	}
	// u in (0,1] so that Log never sees zero.
	u := 1.0 - r.Float64()
	v := r.Float64()
	mag := math.Sqrt(-2.0 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v) // bit-equal to Sin, Cos: TestNormFloat64SincosBitEqual
	r.spare, r.hasSpare = mag*sin, true
	return mag * cos
}

// Skip advances the stream by exactly k >= 0 Uint64 draws in O(1).
// Like Uint64, it leaves a pending NormFloat64 spare pending.
func (r *RNG) Skip(k int) {
	r.state += uint64(k) * gamma
}

// SkipNormals advances the stream by exactly n >= 0 NormFloat64 calls:
// it consumes a pending spare first, skips whole Box-Muller pairs in
// O(1), and for an odd remainder draws one pair so its spare is left
// pending with the value those calls would leave.
func (r *RNG) SkipNormals(n int) {
	if n > 0 && r.hasSpare {
		r.hasSpare, r.spare = false, 0
		n--
	}
	r.Skip(2 * (n / 2))
	if n%2 == 1 {
		r.NormFloat64()
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1.0 - r.Float64())
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)), drawing the
// same stream as Perm of the same length.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
