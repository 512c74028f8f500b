// Package vclock is the deterministic virtual-time engine the whole
// experiment runs on: a discrete-event scheduler whose event order is a
// pure function of the schedule, never of goroutine timing.
//
// Everything that "takes time" in a simulated deployment — training
// completions, gossip propagation, ledger commit cadence, wait-policy
// deadlines — is an event on one shared clock. Ties are broken by
// (time, peer, sequence): two events at the same virtual instant run in
// peer-index order, and two events of the same peer run in scheduling
// order. That rule is what makes results bit-identical at any
// Parallelism: the clock itself is single-threaded (callbacks run on
// the caller of Run), so concurrency lives inside callbacks (worker
// pools with index-addressed slots, see internal/par) or in a task
// that one callback starts and one later callback joins (par.Tasks).
//
// The asynchronous runner and the sharded orchestrator own a clock and
// drive it as an event queue (Schedule/Run); the barriered round
// engine (bfl.RoundEngine) owns none — it takes explicit commit
// instants from whoever does, which is what lets one round body serve
// the flat schedule and every shard. The throughput simulator
// (internal/simnet) schedules its peerless events here too.
package vclock

import (
	"container/heap"
	"fmt"
)

// Global is the peer index for events that belong to no peer (ledger
// commit boundaries, horizon markers). Global events order before any
// peer's event at the same instant.
const Global = -1

// event is one scheduled callback.
type event struct {
	at   float64 // virtual ms
	peer int     // tie-break 1: peer index (Global first)
	seq  uint64  // tie-break 2: scheduling order
	fn   func() error
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].peer != h[j].peer {
		return h[i].peer < h[j].peer
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() *event  { return h[0] }

var _ heap.Interface = (*eventHeap)(nil)

// Clock is a deterministic virtual clock with an event queue. The zero
// value is not usable; call New. A Clock is not safe for concurrent
// use: all scheduling and running happens on one goroutine.
type Clock struct {
	now float64
	pq  eventHeap
	seq uint64
}

// New returns a clock at virtual time zero with an empty queue.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time in ms.
func (c *Clock) Now() float64 { return c.now }

// Len reports how many events are pending.
func (c *Clock) Len() int { return c.pq.Len() }

// Schedule queues fn at absolute virtual time at, attributed to peer
// for tie-breaking (use Global for peerless events). Times in the past
// are clamped to now, so "schedule immediately" is Schedule(c.Now(), ...).
func (c *Clock) Schedule(at float64, peer int, fn func() error) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	heap.Push(&c.pq, &event{at: at, peer: peer, seq: c.seq, fn: fn})
}

// After is Schedule at now + delay. Negative delays run "now".
func (c *Clock) After(delay float64, peer int, fn func() error) {
	if delay < 0 {
		delay = 0
	}
	c.Schedule(c.now+delay, peer, fn)
}

// Run processes events in (time, peer, seq) order until the queue
// empties or a callback returns an error, which stops the clock and is
// returned with the failing event's time folded in.
func (c *Clock) Run() error {
	for c.pq.Len() > 0 {
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil processes events with time <= until (inclusive), then, if
// anything remains, leaves the clock parked at until. An empty queue
// leaves now wherever the last event put it.
func (c *Clock) RunUntil(until float64) error {
	for c.pq.Len() > 0 {
		if c.pq.Peek().at > until {
			if c.now < until {
				c.now = until
			}
			return nil
		}
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

// step pops and runs the single next event.
func (c *Clock) step() error {
	e := heap.Pop(&c.pq).(*event)
	c.now = e.at
	if err := e.fn(); err != nil {
		return fmt.Errorf("vclock: t=%gms: %w", e.at, err)
	}
	return nil
}
