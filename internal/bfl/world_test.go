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

// worldConfig is tinyConfig with a poisoned peer (the world holds the
// label-flipped copy) and the commit-latency arrival model, so the
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
// verification set.
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
	if w.verify != nil {
		put(w.verify)
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
// argument slices and engine.roundWeights, that a checked aliasing mode
// has to cover. One world backs eight barriered engines (every backend
// under wait-all and first-2) and two asynchronous runs, all at once at
// Parallelism 4: every result must equal the same configuration run
// with no world, and not one byte of the world may change. A world
// handed to a configuration it was not built from is an error naming
// the field.
func TestWorldSharedAcrossEngines(t *testing.T) {
	base := worldConfig()
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	w.verifier()(w.initial) // builds the verification set the pbft runs read, hashed from here on
	before := worldDigest(w)

	type arm struct {
		cfg   Config
		async bool
	}
	var arms []arm
	for _, backend := range []string{"pow", "poa", "pbft", "instant"} {
		for _, policy := range []core.WaitPolicy{core.WaitAll{}, core.FirstK{K: 2}} {
			cfg := base
			cfg.Backend, cfg.Policy = backend, policy
			arms = append(arms, arm{cfg: cfg})
		}
	}
	for _, backend := range []string{"pow", "instant"} {
		cfg := base
		cfg.Backend, cfg.Policy = backend, core.FirstK{K: 2}
		arms = append(arms, arm{cfg: cfg, async: true})
	}
	run := func(a arm, world *World) (any, error) {
		a.cfg.World = world
		if a.async {
			return RunAsync(context.Background(), a.cfg)
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
			t.Fatalf("%s/%s (async %v) on the shared world: %v", a.cfg.Backend, a.cfg.Policy.Name(), a.async, errs[i])
		}
		solo, err := run(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared[i], solo) {
			t.Errorf("%s/%s (async %v): the run on the shared world differs from the solo run",
				a.cfg.Backend, a.cfg.Policy.Name(), a.async)
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
