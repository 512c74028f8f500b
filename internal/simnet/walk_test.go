package simnet

import (
	"math"
	"slices"
	"testing"
	"time"

	"waitornot/internal/core"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

// walk fires policy over sends with no commit interval, so each update
// is readable at its own time: it returns the included count and the
// firing time.
func walk(policy core.Policy, sends []Send) (int, float64) {
	included, at := WalkRound(policy, sends, 0)
	return len(included), at
}

// snd is an update readable at at: the observer's own when own.
func snd(at float64, own bool) Send { return Send{TrainedMs: at, SentMs: at, Own: own} }

// TestWalkRoundWaitsForSelf: a policy can never fire before the
// observer's own update exists, however many remotes arrive first.
func TestWalkRoundWaitsForSelf(t *testing.T) {
	sends := []Send{snd(50, true), snd(10, false), snd(20, false)}
	included, at := WalkRound(core.Policy{K: 1}, sends, 0)
	if len(included) != 3 || at != 50 {
		t.Fatalf("fired with %v at %g, want 3 at 50 (self gate)", included, at)
	}
	if want := []int{1, 2, 0}; !slices.Equal(included, want) {
		t.Fatalf("included %v, want arrival order %v", included, want)
	}
}

// TestWalkRoundFirstK fires at the K-th arrival.
func TestWalkRoundFirstK(t *testing.T) {
	sends := []Send{snd(5, true), snd(30, false), snd(90, false)}
	included, at := walk(core.Policy{K: 2}, sends)
	if included != 2 || at != 30 {
		t.Fatalf("fired with %d at %g, want 2 at 30", included, at)
	}
}

// TestWalkRoundNeverFiredFallback: a pure timeout whose horizon
// outlives the last arrival includes everything at the last arrival —
// the barriered runner's only remaining instant — and so does a set
// without the observer's own update, where no policy can fire.
func TestWalkRoundNeverFiredFallback(t *testing.T) {
	for _, sends := range [][]Send{
		{snd(5, true), snd(30, false)},
		{snd(5, false), snd(30, false)},
	} {
		included, at := walk(core.Policy{Deadline: time.Hour}, sends)
		if included != 2 || at != 30 {
			t.Fatalf("fallback over %+v fired with %d at %g, want 2 at 30", sends, included, at)
		}
	}
}

// TestWalkRoundTimeoutAtDeadline: a timeout fires at its deadline with
// what is in hand, not at the first arrival past it. An arrival at
// exactly the deadline is in hand; an own update that lands after the
// deadline fires at that landing. The first row is the repro
// -scenario async-ladder -rounds 1 round that used to read as wait-all.
func TestWalkRoundTimeoutAtDeadline(t *testing.T) {
	const d = 60 * time.Millisecond
	cases := []struct {
		name     string
		policy   core.Policy
		sends    []Send
		included int
		at       float64
	}{
		{"async-ladder", core.Policy{Deadline: d}, []Send{snd(12, true), snd(51.3, false), snd(75.3, false)}, 2, 60},
		{"nothing remote yet", core.Policy{Deadline: d}, []Send{snd(5, true), snd(80, false), snd(500, false)}, 1, 60},
		{"arrival at the deadline", core.Policy{Deadline: d}, []Send{snd(5, true), snd(60, false), snd(500, false)}, 2, 60},
		{"own update after the deadline", core.Policy{Deadline: d}, []Send{snd(70, true), snd(10, false), snd(90, false)}, 2, 70},
		{"k first", core.Policy{K: 2, Deadline: d}, []Send{snd(12, true), snd(51.3, false), snd(75.3, false)}, 2, 51.3},
		{"deadline first", core.Policy{K: 3, Deadline: d}, []Send{snd(12, true), snd(51.3, false), snd(75.3, false)}, 2, 60},
	}
	for _, tc := range cases {
		included, at := walk(tc.policy, tc.sends)
		if included != tc.included || at != tc.at {
			t.Errorf("%s: fired with %d at %g, want %d at %g", tc.name, included, at, tc.included, tc.at)
		}
	}
}

// eventWalk is the firing rule as the asynchronous engine runs it: one
// clock event per arrival, at the update's visibility on a commit
// interval of intervalMs, one deadline event ordered after
// same-instant arrivals, the policy probed only once the own update
// exists. WalkRound must agree with it on every schedule.
func eventWalk(policy core.Policy, sends []Send, intervalMs float64) (included int, firedAtMs float64) {
	clock := vclock.New()
	received, haveSelf, fired := 0, false, false
	probe := func() error {
		elapsed := time.Duration(clock.Now() * float64(time.Millisecond))
		if !fired && haveSelf && policy.Ready(received, len(sends), elapsed) {
			fired, included, firedAtMs = true, received, clock.Now()
		}
		return nil
	}
	last := 0.0
	for _, s := range sends {
		at := s.visibleMs(intervalMs)
		last = max(last, at)
		clock.Schedule(at, 0, func() error {
			if fired {
				return nil
			}
			received++
			haveSelf = haveSelf || s.Own
			return probe()
		})
	}
	if policy.Deadline > 0 {
		clock.Schedule(float64(policy.Deadline)/float64(time.Millisecond), 1, probe)
	}
	if err := clock.Run(); err != nil {
		panic(err)
	}
	if !fired {
		return len(sends), last
	}
	return included, firedAtMs
}

// randomSchedule draws up to 8 updates trained on a 1 ms grid narrow
// enough that ties occur, each sent 0-4 ms after its training, with
// the own update at a random rank.
func randomSchedule(rng *xrand.RNG) []Send {
	sends := make([]Send, 1+rng.Intn(8))
	for i := range sends {
		sends[i].TrainedMs = float64(rng.Intn(20))
		sends[i].SentMs = sends[i].TrainedMs + float64(rng.Intn(5))
	}
	sends[rng.Intn(len(sends))].Own = true
	return sends
}

// TestWalkRoundMatchesEventWalk is the differential test ROADMAP item
// 1(a) asks for: over random schedules, commit intervals of 0-5 ms and
// every K/Deadline combination (wait-all, first-K, timeout,
// K-or-timeout) with random K and D, the analytic walk and the
// clock-event walk fire with the same prefix at the same instant. The
// WaitTerms of the last included update are each >= 0 and sum to the
// firing time, and the idle term is non-zero only when the deadline
// fired the policy.
func TestWalkRoundMatchesEventWalk(t *testing.T) {
	rng := xrand.New(20)
	idle, commit := 0, 0
	for trial := 0; trial < 1000; trial++ {
		sends := randomSchedule(rng)
		n := len(sends)
		k, d := 1+rng.Intn(n+1), time.Duration(1+rng.Intn(24))*time.Millisecond
		intervalMs := float64(max(0, rng.Intn(11)-5))
		for _, policy := range []core.Policy{{}, {K: k}, {Deadline: d}, {K: k, Deadline: d}} {
			included, gotAt := WalkRound(policy, sends, intervalMs)
			wantN, wantAt := eventWalk(policy, sends, intervalMs)
			if len(included) != wantN || gotAt != wantAt {
				t.Fatalf("trial %d %s over %+v at interval %g: WalkRound fired with %d at %g, the event walk with %d at %g",
					trial, policy.Name(), sends, intervalMs, len(included), gotAt, wantN, wantAt)
			}
			c, p, cm, id := WaitTerms(sends[included[len(included)-1]], intervalMs, gotAt)
			if c < 0 || p < 0 || cm < 0 || id < 0 || math.Abs(c+p+cm+id-gotAt) > 1e-9*gotAt {
				t.Fatalf("trial %d %s over %+v at interval %g: terms %g+%g+%g+%g, fired at %g",
					trial, policy.Name(), sends, intervalMs, c, p, cm, id, gotAt)
			}
			if id > 0 && gotAt != float64(policy.Deadline)/float64(time.Millisecond) {
				t.Fatalf("trial %d %s over %+v: idle %g ms, fired at %g, not at the deadline", trial, policy.Name(), sends, id, gotAt)
			}
			if id > 0 {
				idle++
			}
			if cm > 0 {
				commit++
			}
		}
	}
	if idle == 0 || commit == 0 {
		t.Fatalf("%d walks idled and %d waited for a commit: the terms went unchecked", idle, commit)
	}
}

// TestWalkRoundProperties: on the same generator, waiting longer never
// includes fewer updates — the included count is monotone in D and in
// K and never exceeds wait-all's — and no policy fires before the
// observer's own update has arrived.
func TestWalkRoundProperties(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 1000; trial++ {
		sends := randomSchedule(rng)
		n := len(sends)
		var ownAt float64
		for _, s := range sends {
			if s.Own {
				ownAt = s.TrainedMs
			}
		}
		all, _ := walk(core.Policy{}, sends)
		ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
		// Each ladder raises one knob with the other held: the count may
		// only grow along it.
		k0, d0 := 1+rng.Intn(n), 1+rng.Intn(24)
		ladders := map[string][]core.Policy{"K": nil, "D": nil, "K at fixed D": nil, "D at fixed K": nil}
		for k := 1; k <= n+1; k++ {
			ladders["K"] = append(ladders["K"], core.Policy{K: k})
			ladders["K at fixed D"] = append(ladders["K at fixed D"], core.Policy{K: k, Deadline: ms(d0)})
		}
		for d := 1; d <= 24; d++ {
			ladders["D"] = append(ladders["D"], core.Policy{Deadline: ms(d)})
			ladders["D at fixed K"] = append(ladders["D at fixed K"], core.Policy{K: k0, Deadline: ms(d)})
		}
		for axis, ladder := range ladders {
			prev := 0
			for _, policy := range ladder {
				included, at := walk(policy, sends)
				if included < prev {
					t.Fatalf("trial %d %+v: %s includes %d, fewer than the %d one step down the %s ladder",
						trial, sends, policy.Name(), included, prev, axis)
				}
				if included > all {
					t.Fatalf("trial %d %+v: %s includes %d, wait-all %d", trial, sends, policy.Name(), included, all)
				}
				if at < ownAt {
					t.Fatalf("trial %d %+v: %s fired at %g, before the own update at %g", trial, sends, policy.Name(), at, ownAt)
				}
				prev = included
			}
		}
	}
}
