// Package latmodel is the analytic PBFT round-latency model behind the
// pbft consensus backend (cf. "Latency Analysis of Consortium
// Blockchained Federated Learning", Ren & Yan 2021). A PBFT round among
// n = 3f+1 validators exchanges O(n²) messages in three phases:
//
//	pre-prepare: the primary broadcasts the proposed batch (n−1 msgs)
//	prepare:     every replica broadcasts its endorsement ((n−1)² msgs)
//	commit:      every validator broadcasts its commit (n(n−1) msgs)
//
// for (n−1)·2n messages total. Each phase completes when a quorum of
// 2f+1 matching messages (the observer's own plus 2f remote arrivals)
// has been collected, so with iid per-hop delays the phase duration is
// the 2f-th order statistic of n−1 draws, and the expected round
// latency is
//
//	E[T] = Updates·VerifyMs + payloadKB·PerKBMs + 3·E[D(2f:n−1)]
//
// where D(k:N) is the k-th smallest of N iid per-hop delays. The
// model deliberately barriers phases at the quorum instant (replicas
// start the next phase together) — the same semantics as the
// event-level simulation in the package's tests, so prediction and
// simulation agree up to sampling error; TestPBFTCalibrationGolden pins
// that agreement.
//
// E[D(k:N)] has a closed form per simnet.Dist family:
//
//	fixed:        m
//	uniform:      m(1−j) + 2mj·k/(N+1)
//	exponential:  m·(H_N − H_{N−k})           (H_i the harmonic numbers)
//	lognormal:    m·exp(σ·Φ⁻¹((k−0.375)/(N+0.25)) − σ²/2)   (Blom)
//
// The first three are exact; the lognormal row uses Blom's quantile
// approximation, accurate to well under a percent at these N.
package latmodel

import (
	"fmt"
	"math"

	"waitornot/internal/simnet"
)

// MinValidators is the smallest committee PBFT tolerates a fault in:
// n = 3f+1 with f ≥ 1.
const MinValidators = 4

// defaultPerHop is the per-message network delay used when a Config
// leaves PerHop zero: a 25 ms mean LAN/consortium hop with ±50%
// uniform jitter.
var defaultPerHop = simnet.Dist{Kind: simnet.DistUniform, Mean: 25, Jitter: 0.5}

// Config parameterizes one PBFT round's latency prediction.
type Config struct {
	// Validators is the committee size n (quorums assume n = 3f+1
	// with f = ⌊(n−1)/3⌋; n < MinValidators is rejected).
	Validators int
	// PerHop is the per-message one-way network delay distribution in
	// ms (zero value = defaultPerHop).
	PerHop simnet.Dist
	// PayloadBytes is the proposed batch's encoded size: the primary
	// serializes it once onto the wire before the pre-prepare hop.
	PayloadBytes int
	// PerKBMs converts payload kilobytes to serialization ms.
	PerKBMs float64
	// Updates is how many submitted model updates the batch carries;
	// each costs VerifyMs of model verification (scoring against the
	// committed model) before the primary proposes.
	Updates int
	// VerifyMs is the per-update model-verification cost in ms.
	VerifyMs float64
}

func (c Config) withDefaults() Config {
	if c.PerHop.IsZero() {
		c.PerHop = defaultPerHop
	}
	return c
}

// validate rejects committees PBFT cannot run: n < 4 has no faulty
// quorum (n = 3f+1 needs f ≥ 1), and the model needs sane costs.
func (c Config) validate() error {
	if c.Validators < MinValidators {
		return fmt.Errorf("latmodel: PBFT needs at least %d validators (n = 3f+1 with f >= 1), got %d",
			MinValidators, c.Validators)
	}
	c = c.withDefaults()
	if err := c.PerHop.Validate(); err != nil {
		return fmt.Errorf("latmodel: per-hop delay: %w", err)
	}
	if c.PayloadBytes < 0 {
		return fmt.Errorf("latmodel: negative payload %d bytes", c.PayloadBytes)
	}
	if c.PerKBMs < 0 || c.VerifyMs < 0 {
		return fmt.Errorf("latmodel: negative cost (PerKBMs %g, VerifyMs %g)", c.PerKBMs, c.VerifyMs)
	}
	if c.Updates < 0 {
		return fmt.Errorf("latmodel: negative update count %d", c.Updates)
	}
	return nil
}

// maxFaulty is f, the byzantine faults a committee of n tolerates.
func maxFaulty(n int) int { return (n - 1) / 3 }

// PredictRoundLatencyMs is the closed-form expected PBFT round latency
// in ms for the configured committee, per-hop distribution, and
// payload: verification + payload serialization + three quorum-
// barriered phases.
func PredictRoundLatencyMs(cfg Config) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	cfg = cfg.withDefaults()
	n := cfg.Validators
	hop, err := expectedOrderStat(cfg.PerHop, 2*maxFaulty(n), n-1)
	if err != nil {
		return 0, err
	}
	verify := float64(cfg.Updates) * cfg.VerifyMs
	payload := float64(cfg.PayloadBytes) / 1024 * cfg.PerKBMs
	return verify + payload + 3*hop, nil
}

// expectedOrderStat is E[D(k:N)], the expected k-th smallest of N iid
// per-hop draws from d, in closed form per family (see package doc).
func expectedOrderStat(d simnet.Dist, k, n int) (float64, error) {
	if k < 1 || k > n {
		return 0, fmt.Errorf("latmodel: order statistic %d of %d", k, n)
	}
	switch d.Kind {
	case simnet.DistFixed:
		return d.Mean, nil
	case simnet.DistUniform:
		lo, hi := d.Mean*(1-d.Jitter), d.Mean*(1+d.Jitter)
		return lo + (hi-lo)*float64(k)/float64(n+1), nil
	case simnet.DistExponential:
		// Rényi's representation: E = m·(H_n − H_{n−k}).
		var h float64
		for i := n - k + 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return d.Mean * h, nil
	case simnet.DistLogNormal:
		// Blom's quantile approximation at p = (k−0.375)/(n+0.25).
		z := normQuantile((float64(k) - 0.375) / (float64(n) + 0.25))
		return d.Mean * math.Exp(d.Jitter*z-d.Jitter*d.Jitter/2), nil
	default:
		return 0, fmt.Errorf("latmodel: unknown distribution kind %v", d.Kind)
	}
}

// normQuantile is Φ⁻¹, the standard normal inverse CDF, via Acklam's
// rational approximation (relative error < 1.2e-9 over (0,1)).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("latmodel: normQuantile(%g) outside (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
