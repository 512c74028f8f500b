package bfl

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/nn"
	"waitornot/internal/simnet"
)

// tinyAsyncConfig is a fast 3-peer free run with a straggler and
// commit-latency modeling, so firing times are non-trivial.
func tinyAsyncConfig() Config {
	return Config{
		Model:           nn.ModelSimpleNN,
		Peers:           3,
		Rounds:          2,
		Seed:            11,
		TrainPerPeer:    60,
		SelectionSize:   30,
		TestPerPeer:     30,
		Policy:          core.Policy{K: 2},
		StragglerFactor: []float64{1, 1, 3},
		CommitLatency:   true,
	}
}

// budgetCutAsyncConfig runs the tiny fleet into a time budget that
// falls while the straggler trains (720 ms a round): that round's
// completion lies past the budget, so its training is never started.
func budgetCutAsyncConfig() Config {
	cfg := tinyAsyncConfig()
	cfg.Rounds = 50
	cfg.TimeBudgetMs = 3500
	cfg.StragglerFactor = []float64{1, 1, 3000}
	return cfg
}

// TestRunAsyncDeterministic: the free run is a pure function of its
// configuration. Local training runs on the task set, started at each
// round's opening event and joined at its completion event, so
// Parallelism 1 (every training inside its join), 2 and 8 must agree
// exactly — results and the recorded event stream — on fixed draws,
// on lognormal/uniform draws, and with a budget that cuts rounds
// mid-training.
func TestRunAsyncDeterministic(t *testing.T) {
	hetero := tinyAsyncConfig()
	hetero.Compute = simnet.Dist{Kind: simnet.DistLogNormal, Mean: 1, Jitter: 0.5}
	hetero.Network = simnet.Dist{Kind: simnet.DistUniform, Mean: 40, Jitter: 0.5}
	for name, base := range map[string]Config{
		"tiny": tinyAsyncConfig(), "draws": hetero, "budget-cut": budgetCutAsyncConfig(),
	} {
		run := func(parallelism int) (*AsyncResult, []event.Event) {
			cfg := base
			cfg.Parallelism = parallelism
			var events []event.Event
			cfg.Events = func(ev event.Event) { events = append(events, ev) }
			res, err := RunAsync(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", name, parallelism, err)
			}
			return res, events
		}
		want, wantEvents := run(1)
		for _, parallelism := range []int{2, 8} {
			got, gotEvents := run(parallelism)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result at parallelism %d differs from parallelism 1", name, parallelism)
			}
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Fatalf("%s: event stream at parallelism %d differs from parallelism 1", name, parallelism)
			}
		}
		if name == "budget-cut" && !cutMidTraining(want, base) {
			t.Fatal("budget-cut: no round was open at the budget; the case tests nothing")
		}
	}
}

// cutMidTraining reports whether some peer opened a round the budget
// ended before its training completed: its last record is a policy
// firing before the budget with rounds left, so it opened another
// round, which recorded nothing — not even a close-out.
func cutMidTraining(res *AsyncResult, cfg Config) bool {
	for _, rounds := range res.Rounds {
		last := rounds[len(rounds)-1]
		if !last.ClosedOut && last.Round < cfg.Rounds && last.FiredMs < cfg.TimeBudgetMs {
			return true
		}
	}
	return false
}

// TestRunAsyncShape: every peer completes its rounds, rounds carry a
// coherent virtual-time line, and the ledger recorded the activity.
func TestRunAsyncShape(t *testing.T) {
	res, err := RunAsync(context.Background(), tinyAsyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PeerNames, []string{"A", "B", "C"}) {
		t.Fatalf("peer names = %v", res.PeerNames)
	}
	if len(res.InitialAccuracy) != 3 {
		t.Fatalf("initial accuracies = %v", res.InitialAccuracy)
	}
	for p, rounds := range res.Rounds {
		if len(rounds) != 2 {
			t.Fatalf("peer %d completed %d rounds, want 2", p, len(rounds))
		}
		prevFired := 0.0
		for _, r := range rounds {
			if !(r.OpenMs <= r.ReadyMs && r.ReadyMs <= r.FiredMs) {
				t.Fatalf("peer %d round %d timeline incoherent: %+v", p, r.Round, r)
			}
			if r.FiredMs < prevFired {
				t.Fatalf("peer %d fired out of order: %+v", p, rounds)
			}
			prevFired = r.FiredMs
			if r.Included < 1 || r.Included > 3 {
				t.Fatalf("peer %d merged %d models", p, r.Included)
			}
			if r.WaitMs != r.FiredMs-r.OpenMs {
				t.Fatalf("peer %d wait %g != fired-open %g", p, r.WaitMs, r.FiredMs-r.OpenMs)
			}
		}
	}
	// 3 submissions + 3 decisions per full fleet round.
	if res.Chain.Submissions != 6 || res.Chain.Decisions != 6 {
		t.Fatalf("chain recorded %d submissions / %d decisions, want 6/6",
			res.Chain.Submissions, res.Chain.Decisions)
	}
	if res.HorizonMs <= 0 {
		t.Fatalf("horizon = %g", res.HorizonMs)
	}
}

// TestRunAsyncTimeBudget: the virtual horizon caps the run — nothing
// fires past the budget except the close-out merges at it, and peers
// record fewer rounds than configured.
func TestRunAsyncTimeBudget(t *testing.T) {
	cfg := budgetCutAsyncConfig()
	res, err := RunAsync(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HorizonMs > cfg.TimeBudgetMs {
		t.Fatalf("horizon %g overran the budget %g", res.HorizonMs, cfg.TimeBudgetMs)
	}
	total := 0
	for p, rounds := range res.Rounds {
		if len(rounds) >= 50 {
			t.Fatalf("peer %d ignored the budget: %d rounds", p, len(rounds))
		}
		total += len(rounds)
		for _, r := range rounds {
			if r.FiredMs > cfg.TimeBudgetMs {
				t.Fatalf("peer %d fired at %g, past the budget", p, r.FiredMs)
			}
		}
	}
	if total == 0 {
		t.Fatal("budget run recorded no aggregations at all")
	}
}

// TestRunAsyncTimeoutDeadline: a Timeout policy fires at its deadline
// as a real clock event — not at the next arrival, and never via the
// barriered walk's "never fired" fallback. With commit-latency off and
// a heavy straggler, the fast peers' deadline falls strictly between
// the second arrival and the straggler's.
func TestRunAsyncTimeoutDeadline(t *testing.T) {
	cfg := tinyAsyncConfig()
	cfg.CommitLatency = false
	cfg.StragglerFactor = []float64{1, 1, 400}
	cfg.Policy = core.Policy{Deadline: 90 * 1e6} // 90ms
	cfg.Rounds = 1
	res, err := RunAsync(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawDeadline := false
	for p := 0; p < 2; p++ { // the two fast peers
		r := res.Rounds[p][0]
		if r.WaitMs == 90 {
			sawDeadline = true
			if r.Included == 3 {
				t.Fatalf("peer %d fired at the deadline yet merged the straggler: %+v", p, r)
			}
		}
	}
	if !sawDeadline {
		t.Fatalf("no fast peer fired at its 90ms deadline: %+v %+v",
			res.Rounds[0][0], res.Rounds[1][0])
	}
}

// TestRunAsyncInstantBackend: a zero-latency backend commits
// synchronously as transactions land. Homogeneous peers submit at the
// exact same virtual instant — the regression this pins is a commit
// event racing ahead of same-instant submissions and stranding them —
// so every submission and decision must still reach the ledger.
func TestRunAsyncInstantBackend(t *testing.T) {
	cfg := tinyAsyncConfig()
	cfg.Backend = "instant"
	cfg.StragglerFactor = nil // identical peers: same train duration, same submit instant
	res, err := RunAsync(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.Submissions != 6 || res.Chain.Decisions != 6 {
		t.Fatalf("instant ledger recorded %d submissions / %d decisions, want 6/6",
			res.Chain.Submissions, res.Chain.Decisions)
	}
}

// TestRunAsyncCancellation: a context cancelled before the run, at the
// first training completion or at the first merge surfaces within the
// event loop with no partial result, and the trainings in flight at
// that moment leave no goroutine behind.
func TestRunAsyncCancellation(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(event.Event) bool // nil: cancel before the run
	}{
		{"before-run", nil},
		{"first-PeerTrained", func(ev event.Event) bool { _, ok := ev.(event.PeerTrained); return ok }},
		{"first-PeerAggregated", func(ev event.Event) bool { _, ok := ev.(event.PeerAggregated); return ok }},
	} {
		for _, parallelism := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := tinyAsyncConfig()
			cfg.Parallelism = parallelism
			if tc.at == nil {
				cancel()
			} else {
				cfg.Events = func(ev event.Event) {
					if tc.at(ev) {
						cancel()
					}
				}
			}
			before := runtime.NumGoroutine()
			res, err := RunAsync(ctx, cfg)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s at parallelism %d: err = %v, want context.Canceled", tc.name, parallelism, err)
			}
			if res != nil {
				t.Fatalf("%s at parallelism %d: cancelled run returned a result: %+v", tc.name, parallelism, res)
			}
			// A worker that has signalled Close may not have exited yet.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s at parallelism %d: %d goroutines after the run, %d before",
						tc.name, parallelism, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestRunAsyncHeterogeneousDraws: compute and network distributions
// perturb the schedule (per-round durations differ) while staying
// deterministic.
func TestRunAsyncHeterogeneousDraws(t *testing.T) {
	cfg := tinyAsyncConfig()
	cfg.Compute = simnet.Dist{Kind: simnet.DistLogNormal, Mean: 1, Jitter: 0.5}
	cfg.Network = simnet.Dist{Kind: simnet.DistUniform, Mean: 40, Jitter: 0.5}
	a, err := RunAsync(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAsync(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("heterogeneous async run not deterministic")
	}
	fixed, err := RunAsync(context.Background(), tinyAsyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fixed.Rounds, a.Rounds) {
		t.Fatal("distribution draws had no effect on the schedule")
	}
}

// TestRunAsyncEventStream: the observer sees training, submission,
// commit, and merge events stamped with non-decreasing virtual times.
func TestRunAsyncEventStream(t *testing.T) {
	var times []float64
	var merges int
	cfg := tinyAsyncConfig()
	cfg.Events = func(ev event.Event) {
		switch e := ev.(type) {
		case event.PeerTrained:
			times = append(times, e.VirtualMs)
		case event.ModelSubmitted:
			times = append(times, e.VirtualMs)
		case event.BlockCommitted:
			times = append(times, e.VirtualMs)
		case event.PeerAggregated:
			times = append(times, e.VirtualMs)
			merges++
		}
	}
	if _, err := RunAsync(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if merges != 6 {
		t.Fatalf("saw %d merges, want 6", merges)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("virtual time went backwards at event %d: %v", i, times)
		}
	}
}
