// Event-layer tests: the observer stream must be deterministic — the
// exact logical sequence of the sequential schedule at any
// Parallelism — and must never perturb results; context cancellation
// must stop a run at the next check with ctx.Err().
package waitornot_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"waitornot"
	"waitornot/internal/testutil"
)

// eventOpts is a deliberately tiny decentralized run: 3 peers x 2
// rounds with combo tables off, so event tests stay fast (see
// internal/testutil).
func eventOpts() waitornot.Options { return testutil.TinyStreamOptions() }

// collector records the rendered event stream.
type collector struct {
	mu     sync.Mutex
	events []string
}

func (c *collector) OnEvent(ev waitornot.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, waitornot.EventString(ev))
}

// decentralizedWant is the exact logical event order of one tiny run:
// the registration block (round 0), then per round a round-start,
// every peer trained (peer order), the submission block committed,
// every model submitted, every peer's aggregation decision (wait-all
// admits all 3 models), the decision block committed, and a round-end.
var decentralizedWant = []string{
	"block-committed r0 pow h1 n=3",
	"round-start r1",
	"peer-trained r1 A", "peer-trained r1 B", "peer-trained r1 C",
	"block-committed r1 pow h2 n=3",
	"model-submitted r1 A", "model-submitted r1 B", "model-submitted r1 C",
	"aggregation-decided r1 A n=3", "aggregation-decided r1 B n=3", "aggregation-decided r1 C n=3",
	"block-committed r1 pow h3 n=3",
	"round-end r1",
	"round-start r2",
	"peer-trained r2 A", "peer-trained r2 B", "peer-trained r2 C",
	"block-committed r2 pow h4 n=3",
	"model-submitted r2 A", "model-submitted r2 B", "model-submitted r2 C",
	"aggregation-decided r2 A n=3", "aggregation-decided r2 B n=3", "aggregation-decided r2 C n=3",
	"block-committed r2 pow h5 n=3",
	"round-end r2",
}

// TestDecentralizedEventSequenceGolden pins the exact deterministic
// event sequence of a tiny seeded run, sequentially and at
// Parallelism 8 (the stream may not depend on scheduling).
func TestDecentralizedEventSequenceGolden(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		opts := eventOpts()
		opts.Parallelism = parallelism
		col := &collector{}
		res, err := waitornot.New(opts, waitornot.WithObserver(col)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Decentralized == nil || res.Kind != waitornot.KindDecentralized {
			t.Fatalf("results missing decentralized report: %+v", res)
		}
		if !reflect.DeepEqual(col.events, decentralizedWant) {
			t.Fatalf("parallelism %d: event sequence diverged\ngot:  %q\nwant: %q",
				parallelism, col.events, decentralizedWant)
		}
	}
}

// TestObserverDoesNotPerturbResults proves the acceptance criterion:
// reports are bit-identical with and without an observer attached.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	opts := eventOpts()
	opts.Parallelism = 8
	bare := testutil.Run(t, opts).Decentralized
	observed, err := waitornot.New(opts, waitornot.WithObserver(&collector{})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed.Decentralized) {
		t.Fatal("attaching an observer changed the report")
	}
	goldenEqual(t, "observer", bare, observed.Decentralized)
}

// TestVanillaEventStreamArms checks the vanilla experiment's stream:
// both aggregation arms emit the full round skeleton, consider first.
func TestVanillaEventStreamArms(t *testing.T) {
	opts := eventOpts()
	col := &collector{}
	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindVanilla),
		waitornot.WithObserver(col)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Vanilla == nil {
		t.Fatal("no vanilla report")
	}
	// Per arm per round: round-start + 3 peer-trained +
	// aggregation-decided + round-end = 6 events.
	if len(col.events) != 6*2*2 {
		t.Fatalf("got %d events, want 24: %q", len(col.events), col.events)
	}
	if col.events[0] != "round-start r1 [consider]" {
		t.Fatalf("stream must open with the consider arm, got %q", col.events[0])
	}
	if col.events[12] != "round-start r1 [not consider]" {
		t.Fatalf("not-consider arm must start at event 12, got %q", col.events[12])
	}
}

// TestTradeoffPolicyDoneOrder runs the sweep concurrently and checks
// PolicyDone events still arrive in sweep order, once per policy.
func TestTradeoffPolicyDoneOrder(t *testing.T) {
	opts := eventOpts()
	opts.Parallelism = 8
	opts.StragglerFactor = []float64{1, 1, 4}
	col := &collector{}
	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithObserver(col)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tradeoff.Outcomes) != 3 {
		t.Fatalf("outcomes = %+v", res.Tradeoff.Outcomes)
	}
	want := []string{"policy-done 0 wait-all", "policy-done 1 first-2", "policy-done 2 first-1"}
	if !reflect.DeepEqual(col.events, want) {
		t.Fatalf("policy stream diverged\ngot:  %q\nwant: %q", col.events, want)
	}
}

// TestRunCancellation cancels mid-experiment from inside the observer
// (a deterministic logical point) and requires Run to return
// context.Canceled with no partial report.
func TestRunCancellation(t *testing.T) {
	opts := eventOpts()
	opts.Rounds = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []string
	obs := waitornot.ObserverFunc(func(ev waitornot.Event) {
		seen = append(seen, waitornot.EventString(ev))
		if re, ok := ev.(waitornot.RoundEnd); ok && re.Round == 1 {
			cancel()
		}
	})
	res, err := waitornot.New(opts, waitornot.WithObserver(obs)).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run must not return a report, got %+v", res)
	}
	// The run stopped within one round boundary: round 1 completed,
	// round 2 never opened.
	if seen[len(seen)-1] != "round-end r1" {
		t.Fatalf("run continued past the cancellation boundary: %q", seen)
	}
}

// TestRunPreCancelled: a context that is already dead never starts
// the engine.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	col := &collector{}
	res, err := waitornot.New(eventOpts(), waitornot.WithObserver(col)).Run(ctx)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want nil + context.Canceled", res, err)
	}
	if len(col.events) != 0 {
		t.Fatalf("pre-cancelled run emitted events: %q", col.events)
	}
}

// TestTradeoffCancellation cancels during the policy sweep: the pool
// must stop claiming policies and surface ctx.Err().
func TestTradeoffCancellation(t *testing.T) {
	opts := eventOpts()
	opts.StragglerFactor = []float64{1, 1, 4}
	opts.Parallelism = 1 // sequential sweep: cancel after the first PolicyDone
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := waitornot.ObserverFunc(func(ev waitornot.Event) {
		if _, ok := ev.(waitornot.PolicyDone); ok {
			cancel()
		}
	})
	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithObserver(obs)).Run(ctx)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res=%v err=%v, want nil + context.Canceled", res, err)
	}
}
