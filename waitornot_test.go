package waitornot

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps facade tests fast.
func tinyOpts(m Model) Options {
	return Options{
		Model:          m,
		Clients:        3,
		Rounds:         2,
		Seed:           5,
		TrainPerClient: 90,
		SelectionSize:  40,
		TestPerClient:  50,
	}
}

func TestRunVanillaFacade(t *testing.T) {
	res, err := New(tinyOpts(SimpleNN), WithKind(KindVanilla)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Vanilla
	if len(rep.ClientNames) != 3 || len(rep.Consider) != 3 || len(rep.NotConsider) != 3 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	fig := rep.Figure3("SimpleNN")
	if !strings.Contains(fig, "Client A") || !strings.Contains(fig, "consider") {
		t.Fatalf("Figure3 incomplete:\n%s", fig)
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "client,mode,round,accuracy") {
		t.Fatalf("CSV header missing:\n%s", csv)
	}
}

// TestVanillaReadsThePoisonedShard: the vanilla baseline trains on the
// world's shards, so a fully label-flipped client changes its table.
func TestVanillaReadsThePoisonedShard(t *testing.T) {
	run := func(opts Options) *VanillaReport {
		res, err := New(opts, WithKind(KindVanilla)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Vanilla
	}
	clean, poisoned := tinyOpts(SimpleNN), tinyOpts(SimpleNN)
	poisoned.PoisonClient, poisoned.PoisonFraction = 2, 1
	if reflect.DeepEqual(run(clean), run(poisoned)) {
		t.Fatal("a vanilla run with client 2 label-flipped equals the clean run")
	}
}

// TestVanillaRejectsClientFraction: the baseline trains every client
// every round, so a K-of-N subsample is an error, not a silent no-op.
func TestVanillaRejectsClientFraction(t *testing.T) {
	opts := tinyOpts(SimpleNN)
	opts.ClientFraction = 0.5
	if _, err := New(opts, WithKind(KindVanilla)).Run(context.Background()); err == nil || !strings.Contains(err.Error(), "Options.ClientFraction is an error on vanilla experiments") {
		t.Fatalf("vanilla with ClientFraction 0.5: err = %v, want an error naming the field and the vanilla kind", err)
	}
}

func TestRunDecentralizedFacade(t *testing.T) {
	res, err := New(tinyOpts(SimpleNN)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Decentralized
	if len(rep.PeerNames) != 3 {
		t.Fatalf("peers = %v", rep.PeerNames)
	}
	fig := rep.Figure4("SimpleNN")
	if !strings.Contains(fig, "Client A") {
		t.Fatalf("Figure4 incomplete:\n%s", fig)
	}
	if rep.Chain.Blocks == 0 || rep.Chain.Submissions != 6 {
		t.Fatalf("chain summary = %+v", rep.Chain)
	}
}

// TestFirstNIsWaitAll: a first-K policy with K at or above the
// participant count waits for every participant, so a 3-peer
// decentralized run and an async one under first-3 and first-5 report
// bit for bit what wait-all reports.
func TestFirstNIsWaitAll(t *testing.T) {
	for _, kind := range []Kind{KindDecentralized, KindAsync} {
		run := func(p Policy) *Results {
			opts := tinyOpts(SimpleNN)
			opts.Policy = p
			res, err := New(opts, WithKind(kind)).Run(context.Background())
			if err != nil {
				t.Fatalf("%v %s: %v", kind, p.Name(), err)
			}
			return res
		}
		all := run(Policy{})
		for _, k := range []int{3, 5} {
			if got := run(Policy{K: k}); !reflect.DeepEqual(got, all) {
				t.Errorf("%v: first-%d report differs from wait-all's", kind, k)
			}
		}
	}
}

func TestRunTradeoffFacade(t *testing.T) {
	opts := tinyOpts(SimpleNN)
	opts.StragglerFactor = []float64{1, 1, 6}
	res, err := New(opts, WithKind(KindTradeoff), WithPolicies(DefaultPolicies(3)...)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Tradeoff
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %+v", rep.Runs)
	}
	// Synchronous waits longest and uses the most models.
	sync := rep.Runs[0]
	async := rep.Runs[len(rep.Runs)-1]
	if sync.Policy != "wait-all" {
		t.Fatalf("first policy = %s", sync.Policy)
	}
	if async.MeanWaitMs >= sync.MeanWaitMs {
		t.Fatalf("async wait %v >= sync %v", async.MeanWaitMs, sync.MeanWaitMs)
	}
	if async.MeanIncluded >= sync.MeanIncluded {
		t.Fatalf("async included %v >= sync %v", async.MeanIncluded, sync.MeanIncluded)
	}
	if !strings.Contains(rep.Table(), "wait-all") {
		t.Fatalf("table broken:\n%s", rep.Table())
	}
}

func TestThroughputSweepsShapes(t *testing.T) {
	pts, err := ThroughputVsPeers([]int{4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].CommittedPerSec <= pts[1].CommittedPerSec {
		t.Fatalf("peer sweep shape wrong: %+v", pts)
	}
	gas, err := ThroughputVsBlockGas([]uint64{1_000_000, 100_000_000}, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gas) != 2 || gas[0].CommittedPerSec >= gas[1].CommittedPerSec {
		t.Fatalf("gas sweep shape wrong: %+v", gas)
	}
}

// TestNetperfRefusesDegenerateInput: the -netperf functions return an
// error, never a panic, for inputs the simulations cannot run.
func TestNetperfRefusesDegenerateInput(t *testing.T) {
	if _, err := ThroughputVsPeers([]int{4, 0}, 1); err == nil {
		t.Fatal("ThroughputVsPeers accepted 0 peers")
	}
	if _, err := ThroughputVsBlockGas([]uint64{1_000_000}, 0, 1); err == nil {
		t.Fatal("ThroughputVsBlockGas accepted a zero transaction gas")
	}
}

func TestPolicyNamesAndModelStrings(t *testing.T) {
	if SimpleNN.String() != "SimpleNN" || EffNetB0Sim.String() != "EffNetB0Sim" {
		t.Fatal("model strings wrong")
	}
	if (Policy{}).Name() != "wait-all" {
		t.Fatal("wait-all name wrong")
	}
	if (Policy{K: 2}).Name() != "first-2" {
		t.Fatal("first-k name wrong")
	}
	if !strings.Contains((Policy{Deadline: 1000 * time.Millisecond}).Name(), "timeout") {
		t.Fatal("timeout name wrong")
	}
	if !strings.Contains((Policy{K: 2, Deadline: 1000 * time.Millisecond}).Name(), "first-2-or") {
		t.Fatal("k-or-timeout name wrong")
	}
}

func TestDefaultPoliciesLadder(t *testing.T) {
	ps := DefaultPolicies(3)
	if len(ps) != 3 || ps[0] != (Policy{}) || ps[1] != (Policy{K: 2}) || ps[2] != (Policy{K: 1}) {
		t.Fatalf("ladder = %+v", ps)
	}
}

func TestDefaultPoliciesLadderSizes(t *testing.T) {
	// Two peers: synchronous plus fully asynchronous, nothing between.
	ps := DefaultPolicies(2)
	if len(ps) != 2 || ps[0] != (Policy{}) || ps[1] != (Policy{K: 1}) {
		t.Fatalf("2-peer ladder = %+v", ps)
	}
	// Five peers: wait-all then first-4 down to first-1, strictly
	// descending — the full frontier from sync to async.
	ps = DefaultPolicies(5)
	if len(ps) != 5 {
		t.Fatalf("5-peer ladder has %d rungs", len(ps))
	}
	if ps[0] != (Policy{}) || ps[0].Name() != "wait-all" {
		t.Fatalf("ladder must start synchronous, got %+v", ps[0])
	}
	for i, want := 1, 4; want >= 1; i, want = i+1, want-1 {
		if ps[i] != (Policy{K: want}) {
			t.Fatalf("rung %d = %+v, want first-%d", i, ps[i], want)
		}
	}
}

func TestInvalidModelRejected(t *testing.T) {
	opts := tinyOpts(Model(99))
	if _, err := New(opts, WithKind(KindVanilla)).Run(context.Background()); err == nil {
		t.Fatal("invalid model accepted by vanilla")
	}
	if _, err := New(opts).Run(context.Background()); err == nil {
		t.Fatal("invalid model accepted by decentralized")
	}
}
