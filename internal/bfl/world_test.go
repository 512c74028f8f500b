package bfl

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"waitornot/internal/core"
	"waitornot/internal/dataset"
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
