package core

import (
	"math"
	"time"
)

// Arrival is one update's visibility at an observing peer on the
// virtual clock: the instant it can first be read, whether it is the
// observer's own update, and the caller's index for mapping the fired
// prefix back to its updates.
type Arrival struct {
	// AtMs is the visibility time on the virtual clock (for remote
	// updates: training completion + network + any commit quantization;
	// for the observer's own update: its training completion).
	AtMs float64
	// Index is the caller's handle for this arrival (update slot, peer
	// index); FirePolicy never interprets it.
	Index int
	// Self marks the observer's own update. A policy can never fire
	// before Self has arrived: a peer always aggregates its own model.
	Self bool
}

// FirePolicy is the single firing rule both the experiment runner and
// the round simulator consume: walk arrivals — which the caller has
// sorted by (AtMs, deterministic tie-break) — and probe the wait
// policy at each arrival once the observer's own update exists. It
// returns how many arrivals were on hand when the policy fired (the
// prefix arrivals[:included]) and the firing time.
//
// A Deadliner fires at its deadline, not at the first arrival past it —
// the asynchronous engine's deadline event, so "when a timeout fires"
// has one definition: with the own update in hand, the policy is probed
// at the deadline before any later arrival is handed to it. An arrival
// at exactly the deadline is in hand; a peer whose own update lands
// after the deadline fires at that landing.
//
// If the policy never fires (callers pass expected = len(arrivals), so
// only a hand-built set can do that), everything is included at the
// last arrival.
func FirePolicy(policy WaitPolicy, arrivals []Arrival, expected int) (included int, firedAtMs float64) {
	deadline, deadlineMs := time.Duration(0), math.Inf(1)
	if d, ok := policy.(Deadliner); ok {
		deadline = d.Deadline()
		deadlineMs = float64(deadline) / float64(time.Millisecond)
	}
	haveSelf := false
	for i, a := range arrivals {
		if haveSelf && a.AtMs > deadlineMs && policy.Ready(i, expected, deadline) {
			return i, deadlineMs
		}
		if a.Self {
			haveSelf = true
		}
		if !haveSelf {
			continue // keep waiting at least for our own model
		}
		if policy.Ready(i+1, expected, time.Duration(a.AtMs*float64(time.Millisecond))) {
			return i + 1, a.AtMs
		}
	}
	return len(arrivals), arrivals[len(arrivals)-1].AtMs
}

// Deadliner is implemented by wait policies that can fire on elapsed
// time alone (Timeout, KOrTimeout). Event-driven engines schedule a
// real clock event at the deadline; FirePolicy probes at it.
type Deadliner interface {
	// Deadline returns the elapsed-time horizon after which the policy
	// fires with whatever has arrived.
	Deadline() time.Duration
}

// Deadline implements Deadliner.
func (p Timeout) Deadline() time.Duration { return p.D }

// Deadline implements Deadliner.
func (p KOrTimeout) Deadline() time.Duration { return p.D }
