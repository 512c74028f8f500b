// The event-level PBFT round simulation: the oracle the closed form in
// latmodel.go is checked against (TestPBFTCalibrationGolden). It is
// test code because nothing but that check reads it.
package latmodel

import (
	"fmt"
	"testing"

	"waitornot/internal/simnet"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

// simConfig parameterizes the event-level PBFT latency simulation that
// validates the closed form: the same round model, but with every
// message an explicit vclock event whose delay is drawn from PerHop.
type simConfig struct {
	Config
	// Rounds is how many independent rounds to simulate and average
	// (0 = defaultSimRounds).
	Rounds int
	// Seed drives the per-hop draws.
	Seed uint64
}

// defaultSimRounds keeps the sampling error of the simulated mean a
// comfortable factor under calibrationTolerance.
const defaultSimRounds = 400

// simulateRoundLatencyMs runs the event-level PBFT round simulation on
// a virtual clock and returns the mean round latency over cfg.Rounds
// independent rounds: every protocol message is a scheduled event with
// its own per-hop delay draw, and each phase barriers at the instant
// the observer's 2f-th remote message arrives — the semantics the
// closed form in PredictRoundLatencyMs integrates exactly.
func simulateRoundLatencyMs(cfg simConfig) (float64, error) {
	if err := cfg.Config.validate(); err != nil {
		return 0, err
	}
	if cfg.Rounds < 0 {
		return 0, fmt.Errorf("latmodel: negative simulation rounds %d", cfg.Rounds)
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = defaultSimRounds
	}
	cfg.Config = cfg.Config.withDefaults()
	rng := xrand.New(cfg.Seed).Derive("pbft-sim")
	var sum float64
	for r := 0; r < cfg.Rounds; r++ {
		ms, err := simulateOneRound(cfg.Config, rng)
		if err != nil {
			return 0, err
		}
		sum += ms
	}
	return sum / float64(cfg.Rounds), nil
}

// simulateOneRound plays one PBFT round as discrete events. Peer 0 is
// the primary. The round opens with the deterministic verification +
// payload-serialization cost, then:
//
//	pre-prepare: primary → each replica (n−1 events); the phase
//	  barriers when the 2f-th replica has received the proposal.
//	prepare: every replica broadcasts ((n−1)² events); barriers when
//	  the primary holds 2f remote prepares.
//	commit: every validator broadcasts (n(n−1) events); the round
//	  completes when the primary holds 2f remote commits.
//
// Messages beyond the quorum still fly (and are still drawn and
// scheduled — the O(n²) traffic exists), they just don't gate.
func simulateOneRound(cfg Config, rng *xrand.RNG) (float64, error) {
	n := cfg.Validators
	need := 2 * maxFaulty(n)
	clock := vclock.New()
	draw := func() float64 { return cfg.PerHop.Draw(rng) }

	var done float64
	var startPrepare, startCommit func()

	// Prepare: replicas 1..n−1 broadcast to everyone else; the primary
	// (receiver 0) gates the barrier.
	prepared := 0
	startPrepare = func() {
		for s := 1; s < n; s++ {
			for r := 0; r < n; r++ {
				if r == s {
					continue
				}
				d := draw()
				if r == 0 {
					clock.After(d, r, func() error {
						if prepared++; prepared == need {
							startCommit()
						}
						return nil
					})
				} else {
					clock.After(d, r, func() error { return nil })
				}
			}
		}
	}

	// Commit: all n validators broadcast; the primary again gates.
	committed := 0
	startCommit = func() {
		for s := 0; s < n; s++ {
			for r := 0; r < n; r++ {
				if r == s {
					continue
				}
				d := draw()
				if r == 0 {
					clock.After(d, r, func() error {
						if committed++; committed == need {
							done = clock.Now()
						}
						return nil
					})
				} else {
					clock.After(d, r, func() error { return nil })
				}
			}
		}
	}

	// Pre-prepare: verification and payload serialization are
	// deterministic lead time, then the primary's proposal fans out.
	lead := float64(cfg.Updates)*cfg.VerifyMs + float64(cfg.PayloadBytes)/1024*cfg.PerKBMs
	received := 0
	for r := 1; r < n; r++ {
		clock.Schedule(lead+draw(), r, func() error {
			if received++; received == need {
				startPrepare()
			}
			return nil
		})
	}

	if err := clock.Run(); err != nil {
		return 0, err
	}
	if done == 0 {
		return 0, fmt.Errorf("latmodel: simulated round never reached commit quorum (n=%d)", n)
	}
	return done, nil
}

// TestSimulationSeedStability: same seed, same mean; different seeds,
// (almost surely) different means — the simulation is deterministic
// per seed, not secretly shared-state.
func TestSimulationSeedStability(t *testing.T) {
	cfg := simConfig{
		Config: Config{Validators: 7, PerHop: simnet.Dist{Kind: simnet.DistUniform, Mean: 20, Jitter: 0.5}},
		Rounds: 50,
		Seed:   1,
	}
	a, err := simulateRoundLatencyMs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateRoundLatencyMs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave different means: %g vs %g", a, b)
	}
	cfg.Seed = 2
	c, err := simulateRoundLatencyMs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatalf("independent seeds gave identical means: %g", c)
	}
}
