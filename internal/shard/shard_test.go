package shard

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"waitornot/internal/bfl"
	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/fl"
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

// roundOne runs shard i's engine for one round over view, returning
// its peers' training events and adopted models.
func roundOne(t *testing.T, cfg Config, i int, view *bfl.World) ([]event.PeerTrained, []*fl.Update) {
	t.Helper()
	sc := cfg.shardConfig(i, view)
	var trained []event.PeerTrained
	sc.Events = func(ev event.Event) {
		if pt, ok := ev.(event.PeerTrained); ok {
			trained = append(trained, pt)
		}
	}
	eng, err := bfl.NewRoundEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	step := eng.CommitStepMs()
	if err := eng.RegisterAt(step); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunRoundAt(context.Background(), 1, 2*step, 3*step); err != nil {
		t.Fatal(err)
	}
	return trained, eng.Updates()
}

// TestShardConfigSlicing: a shard's configuration is the fleet's over
// its block — its own backend, silenced inner events and combos — and
// everything per-peer stays fleet-indexed: shard 1 runs fleet peers 2
// and 3 (C and D) at straggler factors 3 and 4, and fleet poison peer 2's
// label flip lands in shard 1's block only.
func TestShardConfigSlicing(t *testing.T) {
	base := tinyBase()
	base.StragglerFactor = []float64{1, 2, 3, 4}
	base.PoisonPeer = 2
	base.PoisonFrac = 0.5
	cfg := Config{Base: base, Shards: 2, Backends: []string{"instant", "poa"}}
	clean := cfg
	clean.Base.PoisonPeer, clean.Base.PoisonFrac = -1, 0
	world, err := bfl.NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	cleanWorld, err := bfl.NewWorld(clean.Base)
	if err != nil {
		t.Fatal(err)
	}

	for i, backend := range []string{"instant", "poa"} {
		view := world.Block(2*i, 2*i+2)
		sc := cfg.shardConfig(i, view)
		if sc.Backend != backend || sc.World != view || sc.Peers != 4 || sc.Seed != 7 {
			t.Fatalf("shard %d config: backend %q peers %d seed %d", i, sc.Backend, sc.Peers, sc.Seed)
		}
		if sc.EvalAllCombos || sc.Events != nil {
			t.Error("shard config must silence combos and inner events")
		}
		trained, poisoned := roundOne(t, cfg, i, view)
		_, unpoisoned := roundOne(t, clean, i, cleanWorld.Block(2*i, 2*i+2))
		for k, pt := range trained {
			gi := 2*i + k
			if want := fl.ClientName(gi); pt.Peer != want || poisoned[k].Client != want {
				t.Fatalf("shard %d slot %d runs %q, want %q", i, k, pt.Peer, want)
			}
			// SimMs is samples x epochs x per-sample cost x the peer's
			// straggler factor; the first three are the same per sample.
			unit := trained[0].SimMs / float64(trained[0].Samples) / base.StragglerFactor[2*i]
			if got := pt.SimMs / float64(pt.Samples) / base.StragglerFactor[gi]; math.Abs(got-unit) > 1e-12*unit {
				t.Errorf("%s trains at %g ms per sample-factor, want %g", pt.Peer, got, unit)
			}
			// C trains on flipped labels; D's model may mix C's update
			// in, and shard 0 must not see the poison at all.
			moved := !reflect.DeepEqual(poisoned[k].Weights, unpoisoned[k].Weights)
			if (gi == 2 && !moved) || (i == 0 && moved) {
				t.Errorf("%s: poison moved its model = %v", pt.Peer, moved)
			}
		}
	}
}

// TestShardsSplitOnePopulation is the hierarchy's invariant: at one
// seed, whatever the shard count, the shards' peers in shard order are
// the flat fleet's peers, each with its training set, and a shard at
// S=2 holds exactly the samples of the two S=4 shards it splits into.
// 80 samples a peer keep every Dirichlet shard at or above one minibatch
// (the smallest holds 55); at 60, NewWorld refuses the fleet
// (TestNewWorldRefusesAShardUnderOneMinibatch in internal/bfl).
func TestShardsSplitOnePopulation(t *testing.T) {
	base := tinyBase()
	base.Peers = 8
	base.TrainPerPeer = 80
	base.DirichletAlpha = 0.5
	flat, err := bfl.NewRoundEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[int][]int{}
	for _, shards := range []int{1, 2, 4} {
		o, err := newOrchestrator(context.Background(), Config{Base: base, Shards: shards}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		var peers []string
		var sizes []int
		for _, s := range o.shards {
			for _, u := range s.eng.Updates() {
				peers, sizes = append(peers, u.Client), append(sizes, u.NumSamples)
			}
			samples[shards] = append(samples[shards], s.result.Samples)
		}
		var wantPeers []string
		var wantSizes []int
		for _, u := range flat.Updates() {
			wantPeers, wantSizes = append(wantPeers, u.Client), append(wantSizes, u.NumSamples)
		}
		if !reflect.DeepEqual(peers, wantPeers) || !reflect.DeepEqual(sizes, wantSizes) {
			t.Fatalf("S=%d: peers %v with %v samples, want %v with %v", shards, peers, sizes, wantPeers, wantSizes)
		}
	}
	for i, n := range samples[2] {
		if want := samples[4][2*i] + samples[4][2*i+1]; n != want {
			t.Errorf("S=2 shard %d holds %d samples, want S=4 shards %d+%d = %d", i, n, 2*i, 2*i+1, want)
		}
	}
}

// TestRunsShareOneWorld: a sharded run only reads the world it is
// handed, so S=2 and S=4 can run on one world at once, and each equals
// the run that builds its own.
func TestRunsShareOneWorld(t *testing.T) {
	base := tinyBase()
	base.Peers = 8
	base.Parallelism = 4
	world, err := bfl.NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{2, 4}
	got, errs := make([]*Result, len(counts)), make([]error, len(counts))
	var wg sync.WaitGroup
	for i, shards := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{Base: base, Shards: shards}
			cfg.Base.World = world
			got[i], errs[i] = Run(context.Background(), cfg)
		}()
	}
	wg.Wait()
	for i, shards := range counts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Run(context.Background(), Config{Base: base, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("S=%d on a shared world differs from its own-world run", shards)
		}
	}
}

// TestMismatchedWorldIsAnError: a world built for another fleet is
// refused by name before any block is cut from it.
func TestMismatchedWorldIsAnError(t *testing.T) {
	for field, mut := range map[string]func(*bfl.Config){
		"Peers": func(c *bfl.Config) { c.Peers = 6 },
		"Seed":  func(c *bfl.Config) { c.Seed = 8 },
	} {
		other := tinyBase()
		mut(&other)
		world, err := bfl.NewWorld(other)
		if err != nil {
			t.Fatal(err)
		}
		base := tinyBase()
		base.Peers = 8
		base.World = world
		if _, err := Run(context.Background(), Config{Base: base, Shards: 4}); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("world built for another %s: err = %v", field, err)
		}
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
			Adaptive: mode == MergeAsync, Policies: []core.Policy{core.Policy{}, core.Policy{K: 1}}})
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
		Policies: []core.Policy{core.Policy{}, core.Policy{K: 1}},
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
