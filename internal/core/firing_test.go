package core

import (
	"sort"
	"testing"
	"time"

	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

func arr(at float64, idx int, self bool) Arrival {
	return Arrival{AtMs: at, Index: idx, Self: self}
}

// TestFirePolicyWaitsForSelf: a policy can never fire before the
// observer's own update exists, however many remotes arrive first.
func TestFirePolicyWaitsForSelf(t *testing.T) {
	arrivals := []Arrival{arr(10, 1, false), arr(20, 2, false), arr(50, 0, true)}
	included, at := FirePolicy(FirstK{K: 1}, arrivals, 3)
	if included != 3 || at != 50 {
		t.Fatalf("fired with %d at %g, want 3 at 50 (self gate)", included, at)
	}
}

// TestFirePolicyFirstK fires at the K-th arrival.
func TestFirePolicyFirstK(t *testing.T) {
	arrivals := []Arrival{arr(5, 0, true), arr(30, 1, false), arr(90, 2, false)}
	included, at := FirePolicy(FirstK{K: 2}, arrivals, 3)
	if included != 2 || at != 30 {
		t.Fatalf("fired with %d at %g, want 2 at 30", included, at)
	}
}

// TestFirePolicyNeverFiredFallback: a pure Timeout whose horizon
// outlives the last arrival includes everything at the last arrival —
// the barriered runner's only remaining instant.
func TestFirePolicyNeverFiredFallback(t *testing.T) {
	arrivals := []Arrival{arr(5, 0, true), arr(30, 1, false)}
	included, at := FirePolicy(Timeout{D: time.Hour}, arrivals, 2)
	if included != 2 || at != 30 {
		t.Fatalf("fallback fired with %d at %g, want 2 at 30", included, at)
	}
}

// TestFirePolicyTimeoutAtDeadline: a timeout fires at its deadline with
// what is in hand, not at the first arrival past it. An arrival at
// exactly the deadline is in hand; an own update that lands after the
// deadline fires at that landing. The first row is the repro
// -scenario async-ladder -rounds 1 round that used to read as wait-all.
func TestFirePolicyTimeoutAtDeadline(t *testing.T) {
	const d = 60 * time.Millisecond
	cases := []struct {
		name     string
		policy   WaitPolicy
		arrivals []Arrival
		included int
		at       float64
	}{
		{"async-ladder", Timeout{D: d}, []Arrival{arr(12, 0, true), arr(51.3, 1, false), arr(75.3, 2, false)}, 2, 60},
		{"nothing remote yet", Timeout{D: d}, []Arrival{arr(5, 0, true), arr(80, 1, false), arr(500, 2, false)}, 1, 60},
		{"arrival at the deadline", Timeout{D: d}, []Arrival{arr(5, 0, true), arr(60, 1, false), arr(500, 2, false)}, 2, 60},
		{"own update after the deadline", Timeout{D: d}, []Arrival{arr(10, 1, false), arr(70, 0, true), arr(90, 2, false)}, 2, 70},
		{"k first", KOrTimeout{K: 2, D: d}, []Arrival{arr(12, 0, true), arr(51.3, 1, false), arr(75.3, 2, false)}, 2, 51.3},
		{"deadline first", KOrTimeout{K: 3, D: d}, []Arrival{arr(12, 0, true), arr(51.3, 1, false), arr(75.3, 2, false)}, 2, 60},
	}
	for _, tc := range cases {
		included, at := FirePolicy(tc.policy, tc.arrivals, len(tc.arrivals))
		if included != tc.included || at != tc.at {
			t.Errorf("%s: fired with %d at %g, want %d at %g", tc.name, included, at, tc.included, tc.at)
		}
	}
}

// eventWalk is the firing rule as the asynchronous engine runs it: one
// clock event per arrival, one deadline event ordered after
// same-instant arrivals, the policy probed only once the own update
// exists. FirePolicy must agree with it on every schedule.
func eventWalk(policy WaitPolicy, arrivals []Arrival, expected int) (included int, firedAtMs float64) {
	clock := vclock.New()
	received, haveSelf, fired := 0, false, false
	probe := func() error {
		elapsed := time.Duration(clock.Now() * float64(time.Millisecond))
		if !fired && haveSelf && policy.Ready(received, expected, elapsed) {
			fired, included, firedAtMs = true, received, clock.Now()
		}
		return nil
	}
	for _, a := range arrivals {
		clock.Schedule(a.AtMs, 0, func() error {
			if fired {
				return nil
			}
			received++
			haveSelf = haveSelf || a.Self
			return probe()
		})
	}
	if d, ok := policy.(Deadliner); ok {
		clock.Schedule(float64(d.Deadline())/float64(time.Millisecond), 1, probe)
	}
	if err := clock.Run(); err != nil {
		panic(err)
	}
	if !fired {
		return len(arrivals), arrivals[len(arrivals)-1].AtMs
	}
	return included, firedAtMs
}

// randomSchedule draws up to 8 arrivals on a 1 ms grid narrow enough
// that ties occur, sorted, with the own update at a random rank.
func randomSchedule(rng *xrand.RNG) []Arrival {
	arrivals := make([]Arrival, 1+rng.Intn(8))
	for i := range arrivals {
		arrivals[i].AtMs = float64(rng.Intn(20))
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].AtMs < arrivals[j].AtMs })
	for i := range arrivals {
		arrivals[i].Index = i
	}
	arrivals[rng.Intn(len(arrivals))].Self = true
	return arrivals
}

// TestFirePolicyMatchesEventWalk is the differential test ROADMAP item
// 1(a) asks for: over random schedules and all four policy families
// with random K and D, the analytic walk and the clock-event walk fire
// with the same prefix at the same instant.
func TestFirePolicyMatchesEventWalk(t *testing.T) {
	rng := xrand.New(20)
	for trial := 0; trial < 1000; trial++ {
		arrivals := randomSchedule(rng)
		n := len(arrivals)
		k, d := 1+rng.Intn(n+1), time.Duration(1+rng.Intn(24))*time.Millisecond
		for _, policy := range []WaitPolicy{WaitAll{}, FirstK{K: k}, Timeout{D: d}, KOrTimeout{K: k, D: d}} {
			gotN, gotAt := FirePolicy(policy, arrivals, n)
			wantN, wantAt := eventWalk(policy, arrivals, n)
			if gotN != wantN || gotAt != wantAt {
				t.Fatalf("trial %d %s over %+v: FirePolicy fired with %d at %g, the event walk with %d at %g",
					trial, policy.Name(), arrivals, gotN, gotAt, wantN, wantAt)
			}
		}
	}
}

// TestFirePolicyProperties: on the same generator, waiting longer never
// includes fewer updates — the included count is monotone in D and in
// K and never exceeds wait-all's — and no policy fires before the
// observer's own update has arrived.
func TestFirePolicyProperties(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 1000; trial++ {
		arrivals := randomSchedule(rng)
		n := len(arrivals)
		var ownAt float64
		for _, a := range arrivals {
			if a.Self {
				ownAt = a.AtMs
			}
		}
		all, _ := FirePolicy(WaitAll{}, arrivals, n)
		ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
		// Each ladder raises one knob with the other held: the count may
		// only grow along it.
		k0, d0 := 1+rng.Intn(n), 1+rng.Intn(24)
		ladders := map[string][]WaitPolicy{"K": nil, "D": nil, "K at fixed D": nil, "D at fixed K": nil}
		for k := 1; k <= n+1; k++ {
			ladders["K"] = append(ladders["K"], FirstK{K: k})
			ladders["K at fixed D"] = append(ladders["K at fixed D"], KOrTimeout{K: k, D: ms(d0)})
		}
		for d := 1; d <= 24; d++ {
			ladders["D"] = append(ladders["D"], Timeout{D: ms(d)})
			ladders["D at fixed K"] = append(ladders["D at fixed K"], KOrTimeout{K: k0, D: ms(d)})
		}
		for axis, ladder := range ladders {
			prev := 0
			for _, policy := range ladder {
				included, at := FirePolicy(policy, arrivals, n)
				if included < prev {
					t.Fatalf("trial %d %+v: %s includes %d, fewer than the %d one step down the %s ladder",
						trial, arrivals, policy.Name(), included, prev, axis)
				}
				if included > all {
					t.Fatalf("trial %d %+v: %s includes %d, wait-all %d", trial, arrivals, policy.Name(), included, all)
				}
				if at < ownAt {
					t.Fatalf("trial %d %+v: %s fired at %g, before the own update at %g", trial, arrivals, policy.Name(), at, ownAt)
				}
				prev = included
			}
		}
	}
}

// TestDeadliner: the timeout families expose their horizon so
// event-driven engines can schedule a real clock event instead of the
// fallback.
func TestDeadliner(t *testing.T) {
	var p WaitPolicy = Timeout{D: 42 * time.Millisecond}
	d, ok := p.(Deadliner)
	if !ok || d.Deadline() != 42*time.Millisecond {
		t.Fatalf("Timeout deadliner = %v %v", d, ok)
	}
	p = KOrTimeout{K: 2, D: time.Second}
	d, ok = p.(Deadliner)
	if !ok || d.Deadline() != time.Second {
		t.Fatalf("KOrTimeout deadliner = %v %v", d, ok)
	}
	if _, ok := WaitPolicy(WaitAll{}).(Deadliner); ok {
		t.Fatal("WaitAll must not advertise a deadline")
	}
	if _, ok := WaitPolicy(FirstK{K: 1}).(Deadliner); ok {
		t.Fatal("FirstK must not advertise a deadline")
	}
}
