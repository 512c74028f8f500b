package bfl

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/xrand"
)

// worldConfig is tinyConfig with a poisoned peer (the world holds its
// label-flipped labels) and the commit-latency arrival model, so the
// wait policies below differ.
func worldConfig() Config {
	cfg := tinyConfig()
	cfg.EvalAllCombos = false
	cfg.StragglerFactor = []float64{1, 1, 3}
	cfg.CommitLatency = true
	cfg.PoisonPeer, cfg.PoisonFrac = 2, 0.3
	cfg.Parallelism = 4
	return cfg
}

// worldDigest is a SHA-256 over every buffer the world holds: each
// set's samples and labels, the initial weights and, once built, the
// held-out set.
func worldDigest(w *World) [sha256.Size]byte {
	h := sha256.New()
	put := func(s *dataset.Set) {
		binary.Write(h, binary.LittleEndian, s.X.Data)
		for _, y := range s.Y {
			binary.Write(h, binary.LittleEndian, int64(y))
		}
	}
	for s := range w.active {
		put(w.train[s])
		put(w.sel[s])
		put(w.test[s])
	}
	binary.Write(h, binary.LittleEndian, w.initial)
	if w.heldOut != nil {
		put(w.heldOut)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// BenchmarkNewWorldPaperSync builds one world at the paper-sync
// benchmark workload's sizes (3 peers, 600/60/160 samples, seed 1) on
// GOMAXPROCS workers; `make profile-setup` runs it at -cpu 1,2.
func BenchmarkNewWorldPaperSync(b *testing.B) {
	cfg := tinyConfig()
	cfg.Seed, cfg.TrainPerPeer, cfg.SelectionSize, cfg.TestPerPeer = 1, 600, 60, 160
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorldSharedAcrossEngines pins the World's read-only contract —
// the fourth read-only share, after interned state values, contract.Call
// argument slices and engine.roundUpdates, that a checked aliasing mode
// has to cover. One world backs eight barriered engines (every backend
// under wait-all and first-2), two asynchronous runs and the vanilla
// baseline, all at once at Parallelism 4: every result must equal the
// same configuration run with no world, and not one byte of the world
// may change. A world
// handed to a configuration it was not built from is an error naming
// the field.
func TestWorldSharedAcrossEngines(t *testing.T) {
	base := worldConfig()
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	w.heldOutSet() // built here, so the pbft and vanilla runs below read it and it is hashed
	before := worldDigest(w)

	type arm struct {
		cfg  Config
		kind string // "" (barriered), "async" or "vanilla"
	}
	var arms []arm
	for _, backend := range []string{"pow", "poa", "pbft", "instant"} {
		for _, policy := range []core.Policy{core.Policy{}, core.Policy{K: 2}} {
			cfg := base
			cfg.Backend, cfg.Policy = backend, policy
			arms = append(arms, arm{cfg: cfg})
		}
	}
	for _, backend := range []string{"pow", "instant"} {
		cfg := base
		cfg.Backend, cfg.Policy = backend, core.Policy{K: 2}
		arms = append(arms, arm{cfg: cfg, kind: "async"})
	}
	arms = append(arms, arm{cfg: arms[0].cfg, kind: "vanilla"})
	run := func(a arm, world *World) (any, error) {
		a.cfg.World = world
		switch a.kind {
		case "async":
			return RunAsync(context.Background(), a.cfg)
		case "vanilla":
			return RunVanilla(context.Background(), a.cfg)
		}
		return Run(context.Background(), a.cfg)
	}

	shared := make([]any, len(arms))
	errs := make([]error, len(arms))
	var wg sync.WaitGroup
	for i, a := range arms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i], errs[i] = run(a, w)
		}()
	}
	wg.Wait()
	for i, a := range arms {
		if errs[i] != nil {
			t.Fatalf("%s/%s (%q) on the shared world: %v", a.cfg.Backend, a.cfg.Policy.Name(), a.kind, errs[i])
		}
		solo, err := run(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared[i], solo) {
			t.Errorf("%s/%s (%q): the run on the shared world differs from the solo run",
				a.cfg.Backend, a.cfg.Policy.Name(), a.kind)
		}
	}
	if worldDigest(w) != before {
		t.Fatal("a run wrote into the shared world")
	}

	seed1 := base
	seed1.Seed = 1
	w1, err := NewWorld(seed1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		world  *World
		mutate func(*Config)
	}{
		{"Seed", w1, func(c *Config) { c.Seed = 2 }},
		{"TrainPerPeer", w, func(c *Config) { c.TrainPerPeer = 120 }},
		{"PoisonFrac", w, func(c *Config) { c.PoisonFrac = 0.5 }},
		{"ClientFraction", w, func(c *Config) { c.ClientFraction = 0.5 }},
	} {
		cfg := base
		tc.mutate(&cfg)
		cfg.World = tc.world
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("world handed a config with another %s: err = %v, want an error naming the field", tc.field, err)
		}
	}
}

// TestWorldBlock: blocks are views, not copies — side by side they are
// the world's fleet indices and data sets, and each shares its initial
// weights.
func TestWorldBlock(t *testing.T) {
	w, err := NewWorld(worldConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got World
	for _, b := range []*World{w.Block(0, 1), w.Block(1, 3)} {
		got.active = append(got.active, b.active...)
		got.train, got.sel, got.test = append(got.train, b.train...), append(got.sel, b.sel...), append(got.test, b.test...)
		if &b.Initial()[0] != &w.initial[0] {
			t.Fatal("a block copied the initial weights")
		}
	}
	if !reflect.DeepEqual(got.active, w.active) {
		t.Fatalf("blocks [0,1) and [1,3) hold fleet indices %v, want %v", got.active, w.active)
	}
	for s := range w.active {
		if got.train[s] != w.train[s] || got.sel[s] != w.sel[s] || got.test[s] != w.test[s] {
			t.Fatalf("slot %d's sets were copied or moved", s)
		}
	}
}

// TestNewWorldRefusesAShardUnderOneMinibatch: a Dirichlet split that
// deals a peer fewer samples than one minibatch is a set-up error naming
// the peer and both numbers — at seed 7, 8 peers × 60 samples and α 0.5
// deal peer C 22 — not a peer that silently trains nothing.
func TestNewWorldRefusesAShardUnderOneMinibatch(t *testing.T) {
	cfg := Config{Peers: 8, Rounds: 3, Seed: 7, TrainPerPeer: 60, SelectionSize: 30, TestPerPeer: 30,
		Backend: "instant", DirichletAlpha: 0.5}
	_, err := NewWorld(cfg)
	if err == nil || !strings.Contains(err.Error(), "peer C's training shard holds 22 samples, less than one minibatch of 32") {
		t.Fatalf("NewWorld: %v, want peer C's 22-sample shard refused", err)
	}
	cfg.TrainPerPeer = 80
	if _, err := NewWorld(cfg); err != nil {
		t.Fatalf("at 80 samples a peer: %v", err)
	}
}

// TestEffNetWorldsShareOneBackbone: EffNetSim's initial weights are the
// one pretrained backbone — worlds built on their own at seeds 1 and 2
// (and at 1 and 2 workers) hold it bit for bit, and it is not the
// un-pretrained build of its stream — while SimpleNN's initial weights
// still differ by seed. The two EffNetSim worlds each pay the 6000 × 5
// warm start, side by side.
func TestEffNetWorldsShareOneBackbone(t *testing.T) {
	initial := func(model nn.ModelID, seeds ...uint64) [][]float32 {
		out := make([][]float32, len(seeds))
		if err := par.ForEach(len(seeds), len(seeds), func(i int) error {
			cfg := tinyConfig()
			cfg.Model, cfg.Seed, cfg.Parallelism = model, seeds[i], i+1
			w, err := NewWorld(cfg)
			if err == nil {
				out[i] = w.Initial()
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if s := initial(nn.ModelSimpleNN, 1, 2); slices.Equal(s[0], s[1]) {
		t.Fatal("SimpleNN worlds at seeds 1 and 2 start from the same weights")
	}
	e := initial(nn.ModelEffNetSim, 1, 2)
	if !slices.Equal(e[0], e[1]) {
		t.Fatal("EffNetSim worlds at seeds 1 and 2 start from different weights")
	}
	if slices.Equal(e[0], nn.ModelEffNetSim.Build(xrand.New(0).Derive("backbone").Derive("init")).WeightVector()) {
		t.Fatal("the backbone is its un-pretrained build")
	}
}

// TestHandedBackboneIsTheInitialWeights: an EffNetSim world handed a
// backbone starts from that very vector, and a SimpleNN world never
// asks for one.
func TestHandedBackboneIsTheInitialWeights(t *testing.T) {
	backbone := make([]float32, len(nn.ModelEffNetSim.Build(nil).WeightVector()))
	for i := range backbone {
		backbone[i] = float32(i)
	}
	cfg := tinyConfig()
	cfg.Model, cfg.Backbone = nn.ModelEffNetSim, func() []float32 { return backbone }
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &w.Initial()[0] != &backbone[0] {
		t.Fatal("the world does not start from the handed-down backbone")
	}
	cfg.Model, cfg.Backbone = nn.ModelSimpleNN, func() []float32 {
		t.Fatal("a SimpleNN world asked for the backbone")
		return nil
	}
	if w, err = NewWorld(cfg); err != nil {
		t.Fatal(err)
	}
	own, err := NewWorld(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.Initial(), own.Initial()) {
		t.Fatal("a handed-down backbone moved SimpleNN's initial weights")
	}
}

// TestTrainingCostIsMulAdds: a peer's modeled training time is samples
// × epochs × multiply-adds / mulAddsPerMs — SimpleNN's 0.0008 ms a
// sample bit for bit, and EffNetSim's larger in the ratio of their
// multiply-adds.
func TestTrainingCostIsMulAdds(t *testing.T) {
	simTrainMs := func(model nn.ModelID) []float64 {
		cfg := tinyConfig()
		cfg.Model, cfg.StragglerFactor = model, []float64{1, 1, 3}
		cfg.Backbone = func() []float32 { return make([]float32, len(nn.ModelEffNetSim.Build(nil).WeightVector())) }
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(e.peers))
		for i, p := range e.peers {
			out[i] = p.simTrainMs
		}
		return out
	}
	simple, eff := simTrainMs(nn.ModelSimpleNN), simTrainMs(nn.ModelEffNetSim)
	for i, straggler := range []float64{1, 1, 3} {
		if want := float64(90*5) * 0.0008 * straggler; simple[i] != want {
			t.Errorf("SimpleNN peer %d: %v ms, want %v", i, simple[i], want)
		}
		if r := eff[i] / simple[i]; math.Abs(r-454_080.0/61_640) > 1e-12 {
			t.Errorf("peer %d: EffNetSim costs %v× SimpleNN, want 454080/61640", i, r)
		}
	}
}
