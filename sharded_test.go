// Sharded-hierarchy public-API tests: the multi-aggregator engine must
// stream a deterministic shard-event order at any Parallelism (pinned
// as a golden), collapse to the flat decentralized run bit-for-bit at
// a single shard, sweep shard count × merge cadence as grid axes, and
// let the adaptive controller reach a target accuracy no later than
// the worst fixed wait policy.
package waitornot_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"waitornot"
	"waitornot/internal/testutil"
)

// shardedOpts is the tiny sharded configuration the goldens pin: 4
// peers split across 2 shards, one shard carrying a 3x straggler, with
// commit latency modeled so the merge instants are non-trivial.
func shardedOpts() waitornot.Options {
	return waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         4,
		Rounds:          2,
		Seed:            7,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		LearningRate:    0.01,
		SkipComboTables: true,
		Shards:          2,
		MergeCadence:    1,
		CommitLatency:   true,
		StragglerFactor: []float64{1, 1, 1, 3},
	}
}

// TestShardedEventOrderGolden pins the exact shard-event order of the
// tiny sharded run — shard round ends, per-epoch model commits, and
// cross-shard merges, all stamped with virtual times — at Parallelism
// 1 and NumCPU (the single-threaded scheduler must not care).
func TestShardedEventOrderGolden(t *testing.T) {
	var want []string
	for i, parallelism := range []int{1, runtime.NumCPU()} {
		opts := shardedOpts()
		opts.Parallelism = parallelism
		col := &collector{}
		res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindSharded), waitornot.WithObserver(col)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != waitornot.KindSharded || res.Sharded == nil {
			t.Fatalf("results missing sharded report: %+v", res)
		}
		if i == 0 {
			want = col.events
			testutil.GoldenFile(t, "testdata/sharded_events.golden",
				[]byte(strings.Join(col.events, "\n")+"\n"))
			continue
		}
		if !reflect.DeepEqual(col.events, want) {
			t.Fatalf("parallelism %d: sharded event order diverged\ngot:  %q\nwant: %q",
				parallelism, col.events, want)
		}
	}
}

// TestShardedDeterminism: the full report — every shard's rounds, peer
// records, chain footprint, and the merge trajectory — is bit-identical
// at Parallelism 1 and NumCPU, for both merge modes (the async mode
// with the adaptive controller on, its most scheduling-sensitive form).
func TestShardedDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*waitornot.Options)
	}{
		{"sync", func(o *waitornot.Options) {}},
		{"async-adaptive", func(o *waitornot.Options) {
			o.MergeMode = waitornot.MergeAsync
			o.AdaptiveShards = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reports []*waitornot.ShardedReport
			for _, parallelism := range []int{1, runtime.NumCPU()} {
				opts := shardedOpts()
				opts.Parallelism = parallelism
				tc.tweak(&opts)
				res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindSharded)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, res.Sharded)
			}
			testutil.GoldenEqual(t, tc.name, reports[0], reports[1])
		})
	}
}

// TestShardedTablesGolden pins the rendered report — per-shard round
// table, merge table, CSV, and summary line — byte-for-byte.
func TestShardedTablesGolden(t *testing.T) {
	rep := testutil.Run(t, shardedOpts(), waitornot.WithKind(waitornot.KindSharded)).Sharded
	out := rep.Table() + "\n" + rep.MergeTable() + "\n" + rep.CSV() + "\n" + rep.Summary() + "\n"
	testutil.GoldenFile(t, "testdata/sharded_table.golden", []byte(out))
}

// TestShardedObserverDoesNotPerturb: attaching an observer changes no
// result bit, matching the other kinds' contract.
func TestShardedObserverDoesNotPerturb(t *testing.T) {
	bare := testutil.Run(t, shardedOpts(), waitornot.WithKind(waitornot.KindSharded)).Sharded
	observed, err := waitornot.New(shardedOpts(), waitornot.WithKind(waitornot.KindSharded),
		waitornot.WithObserver(&collector{})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	testutil.GoldenEqual(t, "sharded-observer", bare, observed.Sharded)
}

// TestShardedSingleShardMatchesFlat is the hierarchy's base case: at
// S=1 the single shard sees the whole fleet under the original seed,
// so its inner per-peer records and ledger footprint must equal a flat
// decentralized run of the same Options exactly — same timestamps,
// same waits, same chain.
func TestShardedSingleShardMatchesFlat(t *testing.T) {
	opts := testutil.TinyStreamOptions()
	opts.CommitLatency = true
	opts.StragglerFactor = []float64{1, 1, 3}

	single := opts
	single.Shards = 1
	res, err := waitornot.New(single, waitornot.WithKind(waitornot.KindSharded)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	flat := testutil.Run(t, opts).Decentralized
	if len(res.Sharded.Shards) != 1 {
		t.Fatalf("expected 1 shard, got %d", len(res.Sharded.Shards))
	}
	s := res.Sharded.Shards[0]
	if s.Peers != opts.Clients || s.Seed != opts.Seed {
		t.Fatalf("single shard must own the whole fleet under the run seed: %+v", s)
	}
	if !reflect.DeepEqual(s.PeerRounds, flat.Rounds) {
		t.Fatalf("S=1 per-peer records diverged from the flat run\ngot:  %+v\nwant: %+v", s.PeerRounds, flat.Rounds)
	}
	if s.Chain != flat.Chain {
		t.Fatalf("S=1 chain footprint diverged from the flat run\ngot:  %+v\nwant: %+v", s.Chain, flat.Chain)
	}
}

// TestShardedSweepGrid: RunSweep spans backend × shard count × merge
// cadence for KindSharded, labeling cells "S=<n>/M=<m>" and reporting
// each as mean ± 95% CI over the seeds.
func TestShardedSweepGrid(t *testing.T) {
	opts := shardedOpts()
	opts.Rounds = 1
	rep, err := waitornot.Scenario{
		Kind:          waitornot.KindSharded,
		Options:       opts,
		ShardCounts:   []int{2},
		MergeCadences: []int{1, 2},
		Backends:      []string{"pow", "instant"},
		Seeds:         []uint64{1, 2},
	}.Experiment().RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Cells), 4; got != want {
		t.Fatalf("cells = %d, want %d (2 backends x 1 shard count x 2 cadences)", got, want)
	}
	if got, want := len(rep.Runs), 8; got != want {
		t.Fatalf("runs = %d, want %d (2 seeds x 4 cells)", got, want)
	}
	labels := map[string]bool{}
	for _, c := range rep.Cells {
		labels[c.Policy] = true
		if c.Backend != "pow" && c.Backend != "instant" {
			t.Fatalf("unexpected cell backend %q", c.Backend)
		}
		if c.Accuracy.N != 2 {
			t.Fatalf("cell %s@%s aggregated %d replications, want 2", c.Policy, c.Backend, c.Accuracy.N)
		}
		if c.Accuracy.CI95 < 0 || c.WaitMs.Mean < 0 || c.Included.Mean <= 0 {
			t.Fatalf("cell %s@%s has implausible statistics: %+v", c.Policy, c.Backend, c)
		}
	}
	for _, want := range []string{"S=2/M=1", "S=2/M=2"} {
		if !labels[want] {
			t.Fatalf("missing cell label %q in %v", want, labels)
		}
	}
	if table := rep.Table(); !strings.Contains(table, "S=2/M=1") {
		t.Fatalf("sweep table does not show the shard-grid labels:\n%s", table)
	}
}

// TestAdaptiveShardsBeatsWorstFixed is the controller's acceptance
// criterion: on a fleet whose straggler makes wait-all expensive, the
// epsilon-greedy policy picker reaches the target accuracy (the worst
// fixed ladder policy's final accuracy) no later on the cumulative
// wait axis than the worst fixed policy does.
func TestAdaptiveShardsBeatsWorstFixed(t *testing.T) {
	base := shardedOpts()
	base.Rounds = 4
	ladder := []waitornot.Policy{
		{},
		{K: 1},
	}

	target := 1.0
	fixed := make([]*waitornot.ShardedReport, len(ladder))
	for i, p := range ladder {
		opts := base
		opts.Policy = p
		rep := testutil.Run(t, opts, waitornot.WithKind(waitornot.KindSharded)).Sharded
		fixed[i] = rep
		if rep.FinalAccuracy < target {
			target = rep.FinalAccuracy
		}
	}
	worstTTA := 0.0
	for i, rep := range fixed {
		tta := rep.TimeToAccuracyMs(target)
		if tta < 0 {
			t.Fatalf("fixed policy %s never reached the ladder's accuracy floor %.4f", ladder[i].Name(), target)
		}
		if tta > worstTTA {
			worstTTA = tta
		}
	}

	adaptive := base
	adaptive.AdaptiveShards = true
	res, err := waitornot.New(adaptive, waitornot.WithKind(waitornot.KindSharded),
		waitornot.WithPolicies(ladder...)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	adTTA := res.Sharded.TimeToAccuracyMs(target)
	if adTTA < 0 {
		t.Fatalf("adaptive controller never reached the target accuracy %.4f", target)
	}
	if adTTA > worstTTA {
		t.Fatalf("adaptive controller reached %.4f at wait %.1f ms, later than the worst fixed policy's %.1f ms",
			target, adTTA, worstTTA)
	}
}

// TestShardedOptionsValidate: the sharded knobs are validated up
// front, matching the CLI's fail-fast contract: a sharded experiment
// refuses them before it reads its (here already cancelled) context.
func TestShardedOptionsValidate(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name  string
		tweak func(*waitornot.Options)
		ok    bool
	}{
		{"valid", func(o *waitornot.Options) {}, true},
		{"negative shards", func(o *waitornot.Options) { o.Shards = -1 }, false},
		{"too few peers per shard", func(o *waitornot.Options) { o.Shards = 3 }, false},
		{"backend list length", func(o *waitornot.Options) { o.ShardBackends = []string{"pow", "poa", "instant"} }, false},
		{"unknown shard backend", func(o *waitornot.Options) { o.ShardBackends = []string{"nope", "pow"} }, false},
		{"per-shard backends", func(o *waitornot.Options) { o.ShardBackends = []string{"poa", "instant"} }, true},
		{"negative cadence", func(o *waitornot.Options) { o.MergeCadence = -1 }, false},
		{"unknown merge mode", func(o *waitornot.Options) { o.MergeMode = waitornot.MergeMode(9) }, false},
		{"client fraction", func(o *waitornot.Options) { o.ClientFraction = 0.5 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := shardedOpts()
			tc.tweak(&opts)
			_, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindSharded)).Run(cancelled)
			if errors.Is(err, context.Canceled) {
				err = nil
			}
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
}

// TestShardedScenariosRegistered: the two sharded scenarios are in the
// registry with their sweep axes wired.
func TestShardedScenariosRegistered(t *testing.T) {
	sc, ok := waitornot.LookupScenario("sharded-hierarchy")
	if !ok || sc.Kind != waitornot.KindSharded {
		t.Fatalf("sharded-hierarchy scenario missing or wrong kind: %+v", sc)
	}
	if !reflect.DeepEqual(sc.ShardCounts, []int{2, 4}) || !reflect.DeepEqual(sc.MergeCadences, []int{1, 2}) {
		t.Fatalf("sharded-hierarchy sweep axes = %v x %v", sc.ShardCounts, sc.MergeCadences)
	}
	if len(sc.Seeds) != 3 || len(sc.Backends) != 2 {
		t.Fatalf("sharded-hierarchy replication setup = seeds %v backends %v", sc.Seeds, sc.Backends)
	}
	ad, ok := waitornot.LookupScenario("adaptive-shards")
	if !ok || ad.Kind != waitornot.KindSharded || !ad.Options.AdaptiveShards {
		t.Fatalf("adaptive-shards scenario missing or not adaptive: %+v", ad)
	}
	if len(ad.Policies) == 0 {
		t.Fatal("adaptive-shards scenario needs a policy ladder")
	}
}
