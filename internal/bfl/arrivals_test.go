package bfl

import (
	"context"
	"reflect"
	"testing"
	"time"

	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/simnet"
	"waitornot/internal/stats"
)

// heteroConfig is tinyConfig on poa with lognormal compute: the
// barriered schedule with drawn arrivals.
func heteroConfig(seed uint64, policy core.Policy, parallelism int) Config {
	cfg := tinyConfig()
	cfg.EvalAllCombos = false
	cfg.Seed, cfg.Policy, cfg.Parallelism = seed, policy, parallelism
	cfg.Backend = "poa"
	cfg.Compute = simnet.Dist{Kind: simnet.DistLogNormal, Mean: 1, Jitter: 0.6}
	return cfg
}

// meanWait is the run's mean policy wait over every peer and round.
func meanWait(res *Result) float64 {
	var sum float64
	var n int
	for _, rounds := range res.Rounds {
		for _, st := range rounds {
			sum += st.WaitMs
			n++
		}
	}
	return sum / float64(n)
}

// TestBarrieredHeterogeneity: with a Compute distribution the barriered
// schedule's wait is no longer a constant. A 3-client sweep over seeds
// 1–3 gives each policy a non-zero interval on its mean wait, and every
// run is identical at Parallelism 1 and 8: the draws are taken on the
// coordinator, in slot order, from per-peer streams.
func TestBarrieredHeterogeneity(t *testing.T) {
	for _, policy := range []core.Policy{core.Policy{}, core.Policy{K: 2}} {
		var wait stats.Welford
		for seed := uint64(1); seed <= 3; seed++ {
			seq, err := Run(context.Background(), heteroConfig(seed, policy, 1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(context.Background(), heteroConfig(seed, policy, 8))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s seed %d: Parallelism 8 differs from 1", policy.Name(), seed)
			}
			wait.Add(meanWait(seq))
		}
		if s := wait.Summary(); s.CI95 <= 0 {
			t.Fatalf("%s: mean wait %v has no interval over seeds 1-3", policy.Name(), s)
		}
	}
}

// TestMoreWaitingNeverIncludesFewer is the metamorphic form of "more
// waiting never includes fewer updates": the arrival draws do not
// depend on the policy, so on the same seed and distributions wait-all
// includes at least as many updates as first-2 or a timeout, and waits
// at least as long, for every peer in every round.
func TestMoreWaitingNeverIncludesFewer(t *testing.T) {
	policies := []core.Policy{core.Policy{}, core.Policy{K: 2}, core.Policy{Deadline: 50 * time.Millisecond}}
	cut := make([]int, len(policies)) // rounds a policy included fewer than wait-all
	for seed := uint64(1); seed <= 3; seed++ {
		runs := make([]*Result, len(policies))
		for i, policy := range policies {
			cfg := heteroConfig(seed, policy, 0)
			cfg.Network = simnet.Dist{Kind: simnet.DistExponential, Mean: 30}
			var err error
			if runs[i], err = Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		all := runs[0]
		for i, other := range runs[1:] {
			for p := range all.Rounds {
				for r, wa := range all.Rounds[p] {
					st := other.Rounds[p][r]
					if wa.Included < st.Included || wa.WaitMs < st.WaitMs {
						t.Fatalf("seed %d peer %d round %d: wait-all included %d after %v ms, %s %d after %v ms",
							seed, p, r+1, wa.Included, wa.WaitMs, policies[i+1].Name(), st.Included, st.WaitMs)
					}
					if st.Included < wa.Included {
						cut[i+1]++
					}
				}
			}
		}
	}
	for i, policy := range policies[1:] {
		if cut[i+1] == 0 {
			t.Errorf("%s never included fewer than wait-all: the check above held vacuously", policy.Name())
		}
	}
}

// TestPeerTrainedReportsTheDraw: on the barriered schedule a
// PeerTrained event carries the round's drawn training duration — the
// calibrated one bit for bit with no distribution, a different one per
// peer and round with a Compute distribution.
func TestPeerTrainedReportsTheDraw(t *testing.T) {
	trained := func(cfg Config) []event.PeerTrained {
		var out []event.PeerTrained
		cfg.Events = func(ev event.Event) {
			if pt, ok := ev.(event.PeerTrained); ok {
				out = append(out, pt)
			}
		}
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fixed := heteroConfig(1, core.Policy{}, 0)
	fixed.Compute = simnet.Dist{}
	e, err := newEngine(fixed)
	if err != nil {
		t.Fatal(err)
	}
	calibrated := map[string]float64{}
	for _, p := range e.peers {
		calibrated[p.name] = p.simTrainMs
	}
	for _, pt := range trained(fixed) {
		if pt.SimMs != calibrated[pt.Peer] {
			t.Fatalf("%s round %d: SimMs %v without a distribution, want the calibrated %v", pt.Peer, pt.Round, pt.SimMs, calibrated[pt.Peer])
		}
	}
	seen := map[float64]bool{}
	drawn := trained(heteroConfig(1, core.Policy{}, 0))
	for _, pt := range drawn {
		seen[pt.SimMs] = true
	}
	if len(seen) != len(drawn) {
		t.Fatalf("drawn SimMs repeat across peers and rounds: %+v", drawn)
	}
}
