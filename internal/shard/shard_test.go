package shard

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"waitornot/internal/bfl"
	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/xrand"
)

func tinyBase() bfl.Config {
	return bfl.Config{
		Peers:         4,
		Rounds:        3,
		Seed:          7,
		TrainPerPeer:  60,
		SelectionSize: 30,
		TestPerPeer:   30,
		Backend:       "instant",
	}
}

func TestPartitionSizes(t *testing.T) {
	cases := []struct {
		n, s int
		want []int
	}{
		{4, 2, []int{2, 2}},
		{5, 2, []int{3, 2}},
		{9, 4, []int{3, 2, 2, 2}},
		{6, 1, []int{6}},
	}
	for _, c := range cases {
		got := partitionSizes(c.n, c.s)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("partitionSizes(%d, %d) = %v, want %v", c.n, c.s, got, c.want)
		}
	}
}

func TestShardConfigSlicing(t *testing.T) {
	base := tinyBase()
	base.StragglerFactor = []float64{1, 2, 3, 4}
	base.PoisonPeer = 2
	base.PoisonFrac = 0.5
	cfg := Config{Base: base, Shards: 2, Backends: []string{"instant", "poa"}}

	s0 := cfg.shardConfig(0, 0, 2, 11)
	if s0.Peers != 2 || s0.Seed != 11 || s0.Backend != "instant" {
		t.Fatalf("shard 0 config: %+v", s0)
	}
	if !reflect.DeepEqual(s0.StragglerFactor, []float64{1, 2}) {
		t.Errorf("shard 0 stragglers = %v", s0.StragglerFactor)
	}
	if s0.PoisonPeer != -1 || s0.PoisonFrac != 0 {
		t.Errorf("poison leaked into shard 0: peer=%d frac=%g", s0.PoisonPeer, s0.PoisonFrac)
	}
	if s0.EvalAllCombos || s0.Events != nil {
		t.Error("shard config must silence combos and inner events")
	}

	s1 := cfg.shardConfig(1, 2, 2, 13)
	if s1.Backend != "poa" {
		t.Errorf("shard 1 backend = %q", s1.Backend)
	}
	if !reflect.DeepEqual(s1.StragglerFactor, []float64{3, 4}) {
		t.Errorf("shard 1 stragglers = %v", s1.StragglerFactor)
	}
	if s1.PoisonPeer != 0 || s1.PoisonFrac != 0.5 {
		t.Errorf("fleet poison peer 2 should map to shard-local 0: peer=%d frac=%g", s1.PoisonPeer, s1.PoisonFrac)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"too many shards", func(c *Config) { c.Shards = 3 }},
		{"bad backend count", func(c *Config) { c.Backends = []string{"a", "b", "c"} }},
		{"bad mode", func(c *Config) { c.Mode = MergeMode(9) }},
		{"negative cadence", func(c *Config) { c.MergeEvery = -1 }},
		{"adaptive without ladder", func(c *Config) { c.Adaptive = true }},
	}
	for _, tc := range cases {
		cfg := Config{Base: tinyBase(), Shards: 2}
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
	if err := (Config{Base: tinyBase(), Shards: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestBanditColdStartAndGreedy(t *testing.T) {
	b := newBandit(3, 0, xrand.New(1)) // eps 0: deterministic exploit after cold start
	for want := 0; want < 3; want++ {
		got := b.pick()
		if got != want {
			t.Fatalf("cold-start pick %d = arm %d, want %d", want, got, want)
		}
		b.update(got, float64(want)) // arm 2 ends best
	}
	if got := b.pick(); got != 2 {
		t.Errorf("greedy pick = arm %d, want 2", got)
	}
	b.update(2, -10) // running mean for arm 2: (2 - 10) / 2 = -4 < 1
	if got := b.pick(); got != 1 {
		t.Errorf("after penalty, greedy pick = arm %d, want 1", got)
	}
}

func TestBanditExplores(t *testing.T) {
	b := newBandit(2, 1, xrand.New(3)) // eps 1: always explore
	b.update(0, 5)
	b.update(1, 0)
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[b.pick()] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("eps=1 bandit never explored both arms: %v", seen)
	}
}

func TestRunSyncShape(t *testing.T) {
	var events []event.Event
	cfg := Config{
		Base:       tinyBase(),
		Shards:     2,
		MergeEvery: 2,
		Events:     func(ev event.Event) { events = append(events, ev) },
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("got %d shard results", len(res.Shards))
	}
	// 3 rounds, cadence 2: epochs close at rounds 2 and 3 -> 2 merges.
	if len(res.Merges) != 2 {
		t.Fatalf("got %d merges, want 2: %+v", len(res.Merges), res.Merges)
	}
	for i, m := range res.Merges {
		if m.Shard != -1 || m.Mode != "sync" || m.Included != 2 || m.Epoch != i+1 {
			t.Errorf("merge %d = %+v", i, m)
		}
	}
	for _, s := range res.Shards {
		if len(s.Rounds) != 3 {
			t.Errorf("shard %d ran %d rounds", s.Index, len(s.Rounds))
		}
		if len(s.PeerRounds) != 2 || s.Chain.Blocks == 0 {
			t.Errorf("shard %d inner per-peer record or ledger footprint missing", s.Index)
		}
		if s.Samples != 120 { // 2 peers x 60
			t.Errorf("shard %d samples = %d", s.Index, s.Samples)
		}
	}
	if res.FinalAccuracy != res.Merges[len(res.Merges)-1].Accuracy {
		t.Error("FinalAccuracy must be the last merge's accuracy")
	}
	if res.HorizonMs <= 0 {
		t.Error("missing horizon")
	}
	// Event census: 6 shard rounds, 4 shard models, 2 merges — and the
	// report's records are the emitted events themselves.
	count := map[string]int{}
	var merges []Merge
	rounds := make([][]RoundAgg, len(res.Shards))
	for _, ev := range events {
		count[ev.EventName()]++
		switch ev := ev.(type) {
		case event.GlobalMerge:
			merges = append(merges, ev)
		case event.ShardRoundEnd:
			rounds[ev.Shard] = append(rounds[ev.Shard], ev)
		}
	}
	if !reflect.DeepEqual(merges, res.Merges) {
		t.Errorf("merge events %+v differ from the report's %+v", merges, res.Merges)
	}
	for i, s := range res.Shards {
		if !reflect.DeepEqual(rounds[i], s.Rounds) {
			t.Errorf("shard %d round events differ from the report's", i)
		}
	}
	want := map[string]int{"shard-round-end": 6, "shard-model-committed": 4, "global-merge": 2}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("event census = %v, want %v", count, want)
	}
}

func TestRunAsyncShape(t *testing.T) {
	cfg := Config{Base: tinyBase(), Shards: 2, MergeEvery: 1, Mode: MergeAsync}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cadence 1: every round closes an epoch, each shard merges on
	// arrival -> 2 shards x 3 rounds = 6 merges.
	if len(res.Merges) != 6 {
		t.Fatalf("got %d merges, want 6", len(res.Merges))
	}
	for _, m := range res.Merges {
		if m.Shard < 0 || m.Mode != "async" || m.Included < 1 {
			t.Errorf("merge = %+v", m)
		}
	}
	// WaitMs axis is monotone in merge order.
	for i := 1; i < len(res.Merges); i++ {
		if res.Merges[i].WaitMs < res.Merges[i-1].WaitMs {
			t.Errorf("wait axis not monotone at merge %d: %g < %g", i, res.Merges[i].WaitMs, res.Merges[i-1].WaitMs)
		}
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int, mode MergeMode) *Result {
		base := tinyBase()
		base.Parallelism = parallelism
		res, err := Run(context.Background(), Config{Base: base, Shards: 2, Mode: mode,
			Adaptive: mode == MergeAsync, Policies: []core.WaitPolicy{core.WaitAll{}, core.FirstK{K: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, mode := range []MergeMode{MergeSync, MergeAsync} {
		seq, par := run(1, mode), run(8, mode)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v run differs between Parallelism 1 and 8", mode)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Base: tinyBase(), Shards: 2}); err == nil {
		t.Fatal("canceled context must abort the run")
	}
}

func TestAdaptivePoliciesRecorded(t *testing.T) {
	base := tinyBase()
	base.Rounds = 4
	res, err := Run(context.Background(), Config{
		Base: base, Shards: 2, MergeEvery: 1, Adaptive: true,
		Policies: []core.WaitPolicy{core.WaitAll{}, core.FirstK{K: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Shards {
		// One policy per epoch (cadence 1 -> 4 epochs), cold start
		// sweeping the ladder in order.
		if len(s.Policies) != 4 {
			t.Fatalf("shard %d recorded %d policies: %v", s.Index, len(s.Policies), s.Policies)
		}
		if s.Policies[0] != "wait-all" || s.Policies[1] != "first-1" {
			t.Errorf("shard %d cold start = %v", s.Index, s.Policies[:2])
		}
	}
}

func TestMergeModeString(t *testing.T) {
	if MergeSync.String() != "sync" || MergeAsync.String() != "async" {
		t.Error("merge mode names changed")
	}
	if fmt.Sprint(MergeMode(0)) != "sync" {
		t.Error("zero value must read as sync")
	}
}
