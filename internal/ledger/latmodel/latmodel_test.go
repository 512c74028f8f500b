// Property and pin tests for the analytic PBFT latency model: quorum
// arithmetic pinned on the n = 3f+1 ladder, latency monotone in
// committee size and per-hop cost, and degenerate committees rejected.
package latmodel

import (
	"math"
	"strings"
	"testing"

	"waitornot/internal/simnet"
)

// ladder is the n = 3f+1 committee ladder for f = 1..10.
func ladder() []int {
	var ns []int
	for f := 1; f <= 10; f++ {
		ns = append(ns, 3*f+1)
	}
	return ns
}

// distFamilies is one representative per supported per-hop family.
func distFamilies() map[string]simnet.Dist {
	return map[string]simnet.Dist{
		"fixed":       {Kind: simnet.DistFixed, Mean: 25},
		"uniform":     {Kind: simnet.DistUniform, Mean: 25, Jitter: 0.5},
		"exponential": {Kind: simnet.DistExponential, Mean: 25},
		"lognormal":   {Kind: simnet.DistLogNormal, Mean: 25, Jitter: 0.5},
	}
}

// TestQuorumMathPinned pins f, the quorum 2f+1, and the O(n²) message
// count for every committee on the f = 1..10 ladder.
func TestQuorumMathPinned(t *testing.T) {
	for f := 1; f <= 10; f++ {
		n := 3*f + 1
		if got := maxFaulty(n); got != f {
			t.Errorf("maxFaulty(%d) = %d, want %d", n, got, f)
		}
		if got, want := quorum(n), 2*f+1; got != want {
			t.Errorf("quorum(%d) = %d, want %d", n, got, want)
		}
		if got, want := messageCount(n), (n-1)+(n-1)*(n-1)+n*(n-1); got != want {
			t.Errorf("messageCount(%d) = %d, want (n−1)+(n−1)²+n(n−1) = %d", n, got, want)
		}
	}
	// Off-ladder committees floor to the largest covered f: n = 5, 6
	// tolerate no more faults than n = 4.
	for n, f := range map[int]int{4: 1, 5: 1, 6: 1, 7: 2, 100: 33} {
		if got := maxFaulty(n); got != f {
			t.Errorf("maxFaulty(%d) = %d, want %d", n, got, f)
		}
	}
}

// TestLatencyMonotoneInValidators: on the n = 3f+1 ladder a bigger
// committee never commits faster — the quorum's order-statistic index
// grows with n for every delay family.
func TestLatencyMonotoneInValidators(t *testing.T) {
	for name, d := range distFamilies() {
		prev := 0.0
		for _, n := range ladder() {
			ms, err := PredictRoundLatencyMs(Config{Validators: n, PerHop: d})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if ms < prev {
				t.Errorf("%s: latency decreased %g -> %g between committees (n=%d)", name, prev, ms, n)
			}
			prev = ms
		}
	}
}

// TestLatencyMonotoneInPerHop: scaling the per-hop mean scales the
// consensus term — latency is monotone non-decreasing in per-hop
// latency for every family, and exactly linear with no payload terms.
func TestLatencyMonotoneInPerHop(t *testing.T) {
	for name, d := range distFamilies() {
		prev := 0.0
		for _, mean := range []float64{1, 5, 25, 125} {
			dd := d
			dd.Mean = mean
			ms, err := PredictRoundLatencyMs(Config{Validators: 7, PerHop: dd})
			if err != nil {
				t.Fatalf("%s mean=%g: %v", name, mean, err)
			}
			if ms <= prev {
				t.Errorf("%s: latency not increasing in per-hop mean: %g -> %g at mean %g", name, prev, ms, mean)
			}
			if prev != 0 && math.Abs(ms-5*prev) > 1e-9*ms {
				t.Errorf("%s: consensus term not linear in the mean: %g at 5x the hop of %g", name, ms, prev)
			}
			prev = ms
		}
	}
}

// TestDegenerateCommitteesRejected: n < 4 has no faulty quorum; validate,
// the prediction and the simulation must reject it with an error naming
// the constraint, not panic or extrapolate.
func TestDegenerateCommitteesRejected(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2, 3} {
		cfg := Config{Validators: n}
		err := cfg.validate()
		if err == nil {
			t.Fatalf("validate accepted a committee of %d", n)
		}
		if !strings.Contains(err.Error(), "at least 4 validators") {
			t.Fatalf("validate(%d) error should state the minimum: %v", n, err)
		}
		if _, err := PredictRoundLatencyMs(cfg); err == nil {
			t.Fatalf("PredictRoundLatencyMs accepted a committee of %d", n)
		}
		if _, err := simulateRoundLatencyMs(simConfig{Config: cfg}); err == nil {
			t.Fatalf("simulateRoundLatencyMs accepted a committee of %d", n)
		}
	}
}

// TestConfigValidateRejectsBadCosts: negative loads and malformed
// per-hop distributions are errors, not NaN latencies.
func TestConfigValidateRejectsBadCosts(t *testing.T) {
	bad := []Config{
		{Validators: 4, PayloadBytes: -1},
		{Validators: 4, PerKBMs: -0.1},
		{Validators: 4, VerifyMs: -1},
		{Validators: 4, Updates: -1},
		{Validators: 4, PerHop: simnet.Dist{Kind: simnet.DistUniform, Mean: 10, Jitter: 1.5}},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: validate accepted %+v", i, cfg)
		}
	}
}

// TestPredictDeterministicTerms pins the closed form's deterministic
// parts: fixed hops make the whole prediction exact, and the verify +
// payload lead adds linearly on top of the consensus term.
func TestPredictDeterministicTerms(t *testing.T) {
	base := Config{Validators: 4, PerHop: simnet.Dist{Kind: simnet.DistFixed, Mean: 10}}
	ms, err := PredictRoundLatencyMs(base)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 30 {
		t.Fatalf("3 phases x 10 ms fixed hops = %g ms, want 30", ms)
	}
	loaded := base
	loaded.Updates = 3
	loaded.VerifyMs = 5
	loaded.PayloadBytes = 1024 * 100
	loaded.PerKBMs = 0.08
	ms, err = PredictRoundLatencyMs(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if want := 30.0 + 15 + 8; ms != want {
		t.Fatalf("loaded round = %g ms, want %g (consensus 30 + verify 15 + payload 8)", ms, want)
	}
}
