// Determinism regression tests for the parallel execution engine: a
// run with Parallelism: 8 must be byte-identical to the sequential
// run (Parallelism: 1) on every parallelized path — per-peer training
// in the decentralized experiment and the vanilla baseline, the
// combination search, and the per-policy trade-off loop. Reports are
// compared both structurally and as serialized bytes (golden
// equality), so any scheduling-dependent float or ordering drift
// fails loudly.
package waitornot_test

import (
	"context"
	"reflect"
	"testing"

	"waitornot"
	"waitornot/internal/bfl"
	"waitornot/internal/nn"
	"waitornot/internal/testutil"
)

// detOpts is the shared tiny-but-nontrivial configuration (see
// internal/testutil).
func detOpts() waitornot.Options { return testutil.TinyOptions() }

// goldenEqual asserts a and b serialize to identical bytes.
func goldenEqual(t *testing.T, label string, a, b any) {
	t.Helper()
	testutil.GoldenEqual(t, label, a, b)
}

func TestDecentralizedParallelMatchesSequential(t *testing.T) {
	seqOpts := detOpts()
	seqOpts.Parallelism = 1
	seq := testutil.Run(t, seqOpts).Decentralized
	parOpts := detOpts()
	parOpts.Parallelism = 8
	par := testutil.Run(t, parOpts).Decentralized
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel decentralized report differs from sequential")
	}
	goldenEqual(t, "decentralized", seq, par)
}

// TestBFLResultParallelMatchesSequential checks golden equality on the
// engine-level Result, not just the facade report: combo grids, round
// stats, and the on-chain footprint (same blocks mined, same gas).
// Config and wall time are run metadata, not results, and are
// normalized before comparing.
func TestBFLResultParallelMatchesSequential(t *testing.T) {
	cfg := bfl.Config{
		Model:         nn.ModelSimpleNN,
		Peers:         3,
		Rounds:        2,
		Seed:          7,
		TrainPerPeer:  90,
		SelectionSize: 40,
		TestPerPeer:   50,
		EvalAllCombos: true,
	}
	run := func(parallelism int) *bfl.Result {
		c := cfg
		c.Parallelism = parallelism
		res, err := bfl.Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel bfl.Result differs from sequential")
	}
	goldenEqual(t, "bfl.Result", seq, par)
}

func TestVanillaParallelMatchesSequential(t *testing.T) {
	seqOpts := detOpts()
	seqOpts.Parallelism = 1
	seq := testutil.Run(t, seqOpts, waitornot.WithKind(waitornot.KindVanilla)).Vanilla
	parOpts := detOpts()
	parOpts.Parallelism = 8
	par := testutil.Run(t, parOpts, waitornot.WithKind(waitornot.KindVanilla)).Vanilla
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel vanilla report differs from sequential")
	}
	goldenEqual(t, "vanilla", seq, par)
}

func TestTradeoffParallelMatchesSequential(t *testing.T) {
	policies := waitornot.DefaultPolicies(3)
	policies = append(policies, waitornot.Policy{Kind: waitornot.KOrTimeout, K: 2, TimeoutMs: 200})
	run := func(parallelism int) *waitornot.TradeoffReport {
		o := detOpts()
		o.Parallelism = parallelism
		o.StragglerFactor = []float64{1, 1, 4}
		return testutil.Run(t, o, waitornot.WithKind(waitornot.KindTradeoff), waitornot.WithPolicies(policies...)).Tradeoff
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel trade-off report differs from sequential")
	}
	goldenEqual(t, "tradeoff", seq, par)
}

// TestSweepsParallelDeterministic pins the always-parallel sweep
// helpers: repeated calls must reproduce the same points exactly.
func TestSweepsParallelDeterministic(t *testing.T) {
	a := waitornot.ThroughputVsPeers([]int{4, 8, 16}, 3)
	b := waitornot.ThroughputVsPeers([]int{4, 8, 16}, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ThroughputVsPeers not reproducible")
	}
	policies := []waitornot.Policy{
		{Kind: waitornot.WaitAll},
		{Kind: waitornot.FirstK, K: 2},
		{Kind: waitornot.Timeout, TimeoutMs: 4000},
	}
	s1 := waitornot.RoundLatencyByPolicy(4, policies, 3)
	s2 := waitornot.RoundLatencyByPolicy(4, policies, 3)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("RoundLatencyByPolicy not reproducible")
	}
	if s1[0].Policy != "wait-all" || s1[1].Policy != "first-2" {
		t.Fatalf("stats landed out of policy order: %+v", s1)
	}
}
