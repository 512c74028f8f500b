package simnet

import (
	"math"
	"testing"
	"time"

	"waitornot/internal/core"
	"waitornot/internal/xrand"
)

func baseThroughput() ThroughputConfig {
	// Validation (not block capacity) is the binding constraint across
	// the peer sweep: capacity = HostCores/(TxExecMs*Peers) = 250/s at
	// 4 peers, while blocks fit 1000 tx/s.
	return ThroughputConfig{
		Peers:           4,
		TxExecMs:        2,
		HostCores:       2,
		BlockIntervalMs: 1000,
		BlockGasLimit:   100_000_000,
		TxGas:           100_000,
		OfferedTxPerSec: 400,
		DurationMs:      60_000,
		Seed:            1,
	}
}

func TestThroughputHalvesWhenPeersDouble(t *testing.T) {
	// The paper's §II-A2 premise (VFChain): on a shared host, doubling
	// participants roughly halves throughput. In the saturated regime
	// the pipeline rate is HostCores/(TxExecMs*Peers), so the ratio
	// should be ~2x.
	pts := SweepPeers(baseThroughput(), []int{4, 8, 16})
	if pts[0].CommittedPerSec <= pts[1].CommittedPerSec || pts[1].CommittedPerSec <= pts[2].CommittedPerSec {
		t.Fatalf("throughput not decreasing: %+v", pts)
	}
	r1 := pts[0].CommittedPerSec / pts[1].CommittedPerSec
	r2 := pts[1].CommittedPerSec / pts[2].CommittedPerSec
	for _, r := range []float64{r1, r2} {
		if r < 1.6 || r > 2.4 {
			t.Fatalf("halving ratio %v out of [1.6, 2.4] (points %+v)", r, pts)
		}
	}
	// Execution (commit) latency grows with peers.
	if !(pts[0].MeanLatencyMs < pts[1].MeanLatencyMs && pts[1].MeanLatencyMs < pts[2].MeanLatencyMs) {
		t.Fatalf("latency not increasing: %+v", pts)
	}
}

func TestThroughputBoundedByBlockCapacity(t *testing.T) {
	cfg := baseThroughput()
	cfg.Peers = 1
	cfg.TxExecMs = 0.1 // validation is not the bottleneck
	// Capacity 10 tx/block at 1 block/s -> ~10 tx/s despite 400 offered.
	pts := SweepBlockGas(cfg, []uint64{1_000_000, 10_000_000, 100_000_000})
	if pts[0].CommittedPerSec > 12 {
		t.Fatalf("tiny blocks commit %v tx/s, expected <= ~10", pts[0].CommittedPerSec)
	}
	if pts[1].CommittedPerSec < pts[0].CommittedPerSec {
		t.Fatalf("bigger blocks slower: %+v", pts)
	}
	// Huge blocks saturate at the offered rate.
	if pts[2].CommittedPerSec < 300 {
		t.Fatalf("unbounded blocks commit %v tx/s, want near offered 400", pts[2].CommittedPerSec)
	}
}

func TestThroughputDeterministic(t *testing.T) {
	a := SimulateThroughput(baseThroughput())
	b := SimulateThroughput(baseThroughput())
	if a != b {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func baseRound() RoundConfig {
	return RoundConfig{
		Peers:           8,
		MeanTrainMs:     5000,
		TrainJitter:     0.3,
		StragglerFactor: 3,
		BlockIntervalMs: 500,
		NetworkMs:       50,
		Rounds:          500,
		Seed:            7,
	}
}

func TestFirstKWaitsLessThanWaitAll(t *testing.T) {
	cfg := baseRound()
	all := SimulateRounds(cfg, core.WaitAll{})
	half := SimulateRounds(cfg, core.FirstK{K: 4})
	if half.MeanWaitMs >= all.MeanWaitMs {
		t.Fatalf("first-4 wait %v >= wait-all %v", half.MeanWaitMs, all.MeanWaitMs)
	}
	if half.MeanIncluded >= all.MeanIncluded {
		t.Fatalf("first-4 included %v >= wait-all %v", half.MeanIncluded, all.MeanIncluded)
	}
	if all.MeanIncluded != float64(cfg.Peers) {
		t.Fatalf("wait-all must include everyone, got %v", all.MeanIncluded)
	}
	// With a 3x straggler, skipping it saves a large fraction.
	if half.MeanWaitMs > 0.75*all.MeanWaitMs {
		t.Fatalf("asynchronous saving too small: %v vs %v", half.MeanWaitMs, all.MeanWaitMs)
	}
}

// TestTimeoutPolicyCapsWait: a timeout fires at its deadline, so no
// round waits past it — unless the observer's own training (what
// first-1 waits for) outlives the deadline, and then only for that.
func TestTimeoutPolicyCapsWait(t *testing.T) {
	cfg := baseRound()
	cfg.Rounds = 1
	deadline := 6 * time.Second
	late := 0
	for seed := uint64(1); seed <= 300; seed++ {
		cfg.Seed = seed
		wait := SimulateRounds(cfg, core.Timeout{D: deadline}).MeanWaitMs
		own := SimulateRounds(cfg, core.FirstK{K: 1}).MeanWaitMs
		if limit := max(float64(deadline.Milliseconds()), own); wait > limit {
			t.Fatalf("seed %d: timeout waited %v, past max(deadline, own completion) = %v", seed, wait, limit)
		}
		if all := SimulateRounds(cfg, core.WaitAll{}).MeanWaitMs; wait > all {
			t.Fatalf("seed %d: timeout wait %v above wait-all %v", seed, wait, all)
		}
		if own > float64(deadline.Milliseconds()) {
			late++
		}
	}
	if late == 0 || late == 300 {
		t.Fatalf("own training outlived the deadline in %d of 300 rounds: both branches must occur", late)
	}
}

func TestAgeGrowsWithBlockInterval(t *testing.T) {
	cfg := baseRound()
	cfg.StragglerFactor = 1
	cfg.TrainJitter = 0.1
	fast := cfg
	fast.BlockIntervalMs = 100
	slow := cfg
	slow.BlockIntervalMs = 5000
	ageFast := SimulateRounds(fast, core.WaitAll{}).MeanAgeMs
	ageSlow := SimulateRounds(slow, core.WaitAll{}).MeanAgeMs
	if ageSlow <= ageFast {
		t.Fatalf("age of block must grow with interval: %v vs %v", ageFast, ageSlow)
	}
}

func TestSimulateRoundsDeterministic(t *testing.T) {
	a := SimulateRounds(baseRound(), core.FirstK{K: 3})
	b := SimulateRounds(baseRound(), core.FirstK{K: 3})
	if a != b {
		t.Fatalf("rounds not deterministic: %+v vs %+v", a, b)
	}
}

func TestDistDraws(t *testing.T) {
	rng := xrand.New(11).Derive("dist")
	if got := (Dist{}).Draw(rng); got != 1 {
		t.Fatalf("zero Dist drew %g, want the neutral multiplier 1", got)
	}
	if got := (Dist{Kind: DistFixed, Mean: 2.5}).Draw(rng); got != 2.5 {
		t.Fatalf("fixed Dist drew %g, want 2.5", got)
	}
	for _, d := range []Dist{
		{Kind: DistUniform, Mean: 10, Jitter: 0.5},
		{Kind: DistLogNormal, Mean: 1, Jitter: 0.8},
		{Kind: DistExponential, Mean: 40},
	} {
		var sum float64
		for i := 0; i < 4000; i++ {
			v := d.Draw(rng)
			if v <= 0 || math.IsNaN(v) {
				t.Fatalf("%+v drew non-positive %g", d, v)
			}
			sum += v
		}
		if mean := sum / 4000; mean < d.Mean*0.8 || mean > d.Mean*1.2 {
			t.Fatalf("%+v empirical mean %g strays from %g", d, mean, d.Mean)
		}
	}
}

func TestDistValidate(t *testing.T) {
	for _, bad := range []Dist{
		{Kind: DistUniform, Mean: -1},
		{Kind: DistUniform, Mean: 1, Jitter: 1.5},
		{Kind: DistKind(99), Mean: 1},
		{Kind: DistLogNormal, Mean: 1, Jitter: -0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v validated, want error", bad)
		}
	}
	if err := (Dist{}).Validate(); err != nil {
		t.Fatalf("zero Dist must validate: %v", err)
	}
	if err := (Dist{Kind: DistLogNormal, Mean: 1, Jitter: 0.5}).Validate(); err != nil {
		t.Fatalf("lognormal must validate: %v", err)
	}
}

func TestThroughputPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulateThroughput(ThroughputConfig{})
}

func TestRoundsLatencyReasonable(t *testing.T) {
	cfg := baseRound()
	stats := SimulateRounds(cfg, core.WaitAll{})
	// Wait must be at least the straggler's mean training time and
	// finite.
	if stats.MeanWaitMs < cfg.MeanTrainMs || math.IsNaN(stats.MeanWaitMs) {
		t.Fatalf("wait %v implausible", stats.MeanWaitMs)
	}
}
