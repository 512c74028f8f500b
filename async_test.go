// Async-mode public-API tests: the un-barriered engine must stream a
// deterministic event order at any Parallelism (pinned as a golden),
// report a coherent accuracy-vs-virtual-time curve, and pin its
// time-to-accuracy table byte-for-byte.
package waitornot_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"waitornot"
	"waitornot/internal/testutil"
)

// asyncOpts is the tiny async ladder configuration the goldens pin: a
// 3x straggler and commit-latency modeling make firing times
// non-trivial, first-2 keeps the run short.
func asyncOpts() waitornot.Options {
	opts := testutil.TinyStreamOptions()
	opts.Policy = waitornot.Policy{K: 2}
	opts.StragglerFactor = []float64{1, 1, 3}
	opts.CommitLatency = true
	return opts
}

// TestAsyncEventOrderGolden pins the exact event order of the tiny
// async run — training completions, gossip-landed submissions, clock-
// scheduled commits, and merges, all stamped with virtual times — at
// Parallelism 1 and 8 (the event loop must not care).
func TestAsyncEventOrderGolden(t *testing.T) {
	var want []string
	for i, parallelism := range []int{1, 8} {
		opts := asyncOpts()
		opts.Parallelism = parallelism
		col := &collector{}
		res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindAsync), waitornot.WithObserver(col)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != waitornot.KindAsync || res.Async == nil {
			t.Fatalf("results missing async report: %+v", res)
		}
		if i == 0 {
			want = col.events
			testutil.GoldenFile(t, "testdata/async_events.golden",
				[]byte(strings.Join(col.events, "\n")+"\n"))
			continue
		}
		if !reflect.DeepEqual(col.events, want) {
			t.Fatalf("parallelism %d: async event order diverged\ngot:  %q\nwant: %q",
				parallelism, col.events, want)
		}
	}
}

// TestAsyncTimeToAccuracyGolden pins the async report's tables —
// per-peer schedule and time-to-accuracy — byte-for-byte.
func TestAsyncTimeToAccuracyGolden(t *testing.T) {
	res, err := waitornot.New(asyncOpts(), waitornot.WithKind(waitornot.KindAsync)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Async
	out := rep.Table() + "\n" + rep.TimeToAccuracyTable(0.1, 0.2, 0.5, 0.99) + "\n" + rep.CSV()
	testutil.GoldenFile(t, "testdata/async_table.golden", []byte(out))
}

// TestAsyncReportCoherence: the timeline starts at t=0 with the mean
// initial accuracy, never moves backwards in time, and
// TimeToAccuracyMs agrees with it (including the -1 "never" case).
func TestAsyncReportCoherence(t *testing.T) {
	res, err := waitornot.New(asyncOpts(), waitornot.WithKind(waitornot.KindAsync)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Async
	timeline := rep.Timeline()
	if len(timeline) == 0 || timeline[0].AtMs != 0 {
		t.Fatalf("timeline must open at t=0: %+v", timeline)
	}
	var mean float64
	for _, a := range rep.InitialAccuracy {
		mean += a
	}
	mean /= float64(len(rep.InitialAccuracy))
	if timeline[0].MeanAccuracy != mean {
		t.Fatalf("t=0 point %g != mean initial accuracy %g", timeline[0].MeanAccuracy, mean)
	}
	for i := 1; i < len(timeline); i++ {
		if timeline[i].AtMs < timeline[i-1].AtMs {
			t.Fatalf("timeline went backwards: %+v", timeline)
		}
	}
	if got := rep.TimeToAccuracyMs(0); got != 0 {
		t.Fatalf("time to accuracy 0 = %g, want 0 (reached at t=0)", got)
	}
	if got := rep.TimeToAccuracyMs(1.1); got != -1 {
		t.Fatalf("unreachable target reported %g, want -1", got)
	}
	acc, wait, included := rep.Headline()
	if acc <= 0 || acc > 1 || wait <= 0 || included < 1 {
		t.Fatalf("headline implausible: acc=%g wait=%g included=%g", acc, wait, included)
	}
	if s := rep.Summary(); !strings.Contains(s, "aggregations across 3 peers") {
		t.Fatalf("summary = %q", s)
	}
}

// TestAsyncObserverDoesNotPerturb: attaching an observer changes no
// result bit, matching the barriered kinds' contract.
func TestAsyncObserverDoesNotPerturb(t *testing.T) {
	bare, err := waitornot.New(asyncOpts(), waitornot.WithKind(waitornot.KindAsync)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	observed, err := waitornot.New(asyncOpts(), waitornot.WithKind(waitornot.KindAsync),
		waitornot.WithObserver(&collector{})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	goldenEqual(t, "async-observer", bare.Async, observed.Async)
}

// TestAsyncOptionsValidation: the new knobs reject impossible values
// through the public surface.
func TestAsyncOptionsValidation(t *testing.T) {
	bad := []waitornot.Options{
		{TimeBudgetMs: -1},
		{ComputeDist: waitornot.Dist{Kind: waitornot.DistUniform, Mean: 1, Jitter: 2}},
		{NetworkDist: waitornot.Dist{Kind: waitornot.DistKind(99), Mean: 1}},
		{ComputeDist: waitornot.Dist{Kind: waitornot.DistLogNormal, Mean: -3}},
	}
	for _, opts := range bad {
		if err := opts.Validate(); err == nil {
			t.Fatalf("options %+v validated, want error", opts)
		}
	}
	good := asyncOpts()
	good.ComputeDist = waitornot.Dist{Kind: waitornot.DistLogNormal, Mean: 1, Jitter: 0.5}
	good.TimeBudgetMs = 100
	if err := good.Validate(); err != nil {
		t.Fatalf("valid async options rejected: %v", err)
	}
}
