package waitornot

import (
	"context"
	"strings"
	"testing"
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
	table := rep.TableI("SimpleNN")
	for _, want := range []string{"Table I", "Consider", "Not consider", "r1", "r2"} {
		if !strings.Contains(table, want) {
			t.Fatalf("TableI missing %q:\n%s", want, table)
		}
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

func TestRunDecentralizedFacade(t *testing.T) {
	res, err := New(tinyOpts(SimpleNN)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Decentralized
	if len(rep.PeerNames) != 3 {
		t.Fatalf("peers = %v", rep.PeerNames)
	}
	for p := 0; p < 3; p++ {
		table := rep.PeerTable(p, "SimpleNN")
		if !strings.Contains(table, "Params from") {
			t.Fatalf("peer table %d broken:\n%s", p, table)
		}
	}
	if rep.PeerTable(99, "x") != "" {
		t.Fatal("out-of-range peer table must be empty")
	}
	fig := rep.Figure4("SimpleNN")
	if !strings.Contains(fig, "Client A") {
		t.Fatalf("Figure4 incomplete:\n%s", fig)
	}
	if rep.Chain.Blocks == 0 || rep.Chain.Submissions != 6 {
		t.Fatalf("chain summary = %+v", rep.Chain)
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
	if len(rep.Outcomes) != 3 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	// Synchronous waits longest and uses the most models.
	sync := rep.Outcomes[0]
	async := rep.Outcomes[len(rep.Outcomes)-1]
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
	pts := ThroughputVsPeers([]int{4, 8}, 1)
	if len(pts) != 2 || pts[0].CommittedPerSec <= pts[1].CommittedPerSec {
		t.Fatalf("peer sweep shape wrong: %+v", pts)
	}
	gas := ThroughputVsBlockGas([]uint64{1_000_000, 100_000_000}, 100_000, 1)
	if len(gas) != 2 || gas[0].CommittedPerSec >= gas[1].CommittedPerSec {
		t.Fatalf("gas sweep shape wrong: %+v", gas)
	}
}

func TestRoundLatencyByPolicy(t *testing.T) {
	stats := RoundLatencyByPolicy(8, []Policy{{Kind: WaitAll}, {Kind: FirstK, K: 4}}, 1)
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[1].MeanWaitMs >= stats[0].MeanWaitMs {
		t.Fatalf("first-4 wait %v >= wait-all %v", stats[1].MeanWaitMs, stats[0].MeanWaitMs)
	}
}

func TestPolicyNamesAndModelStrings(t *testing.T) {
	if SimpleNN.String() != "SimpleNN" || EffNetB0Sim.String() != "EffNetB0Sim" {
		t.Fatal("model strings wrong")
	}
	if (Policy{Kind: WaitAll}).Name() != "wait-all" {
		t.Fatal("wait-all name wrong")
	}
	if (Policy{Kind: FirstK, K: 2}).Name() != "first-2" {
		t.Fatal("first-k name wrong")
	}
	if !strings.Contains((Policy{Kind: Timeout, TimeoutMs: 1000}).Name(), "timeout") {
		t.Fatal("timeout name wrong")
	}
	if !strings.Contains((Policy{Kind: KOrTimeout, K: 2, TimeoutMs: 1000}).Name(), "first-2-or") {
		t.Fatal("k-or-timeout name wrong")
	}
}

func TestDefaultPoliciesLadder(t *testing.T) {
	ps := DefaultPolicies(3)
	if len(ps) != 3 || ps[0].Kind != WaitAll || ps[1].K != 2 || ps[2].K != 1 {
		t.Fatalf("ladder = %+v", ps)
	}
}

func TestDefaultPoliciesLadderSizes(t *testing.T) {
	// Two peers: synchronous plus fully asynchronous, nothing between.
	ps := DefaultPolicies(2)
	if len(ps) != 2 || ps[0].Kind != WaitAll || ps[1].Kind != FirstK || ps[1].K != 1 {
		t.Fatalf("2-peer ladder = %+v", ps)
	}
	// Five peers: wait-all then first-4 down to first-1, strictly
	// descending — the full frontier from sync to async.
	ps = DefaultPolicies(5)
	if len(ps) != 5 {
		t.Fatalf("5-peer ladder has %d rungs", len(ps))
	}
	if ps[0].Kind != WaitAll || ps[0].Name() != "wait-all" {
		t.Fatalf("ladder must start synchronous, got %+v", ps[0])
	}
	for i, want := 1, 4; want >= 1; i, want = i+1, want-1 {
		if ps[i].Kind != FirstK || ps[i].K != want {
			t.Fatalf("rung %d = %+v, want first-%d", i, ps[i], want)
		}
	}
}

func TestRoundLatencyByPolicyFrontier(t *testing.T) {
	policies := []Policy{
		{Kind: WaitAll},
		{Kind: FirstK, K: 2},
		{Kind: Timeout, TimeoutMs: 4000},
		{Kind: KOrTimeout, K: 3, TimeoutMs: 4000},
	}
	stats := RoundLatencyByPolicy(4, policies, 1)
	if len(stats) != len(policies) {
		t.Fatalf("got %d stats for %d policies", len(stats), len(policies))
	}
	// Stats land in policy order regardless of the concurrent sweep.
	for i, p := range policies {
		if stats[i].Policy != p.Name() {
			t.Fatalf("stats[%d] = %q, want %q", i, stats[i].Policy, p.Name())
		}
	}
	waitAll := stats[0]
	if waitAll.MeanIncluded != 4 {
		t.Fatalf("wait-all included %.2f of 4 models", waitAll.MeanIncluded)
	}
	for i, st := range stats {
		if st.MeanWaitMs <= 0 || st.MeanIncluded < 1 || st.MeanIncluded > 4 || st.MeanAgeMs < 0 {
			t.Fatalf("stats[%d] out of range: %+v", i, st)
		}
		// No policy can admit more models or (up to block quantization)
		// wait longer than full synchrony.
		if st.MeanIncluded > waitAll.MeanIncluded || st.MeanWaitMs > waitAll.MeanWaitMs {
			t.Fatalf("policy %s beats wait-all on inclusion/wait: %+v vs %+v", st.Policy, st, waitAll)
		}
	}
	// The bounded-timeout policy must save time over full synchrony
	// with a 3x straggler in play.
	if stats[2].MeanWaitMs >= stats[0].MeanWaitMs {
		t.Fatalf("timeout wait %.1f not below wait-all %.1f", stats[2].MeanWaitMs, stats[0].MeanWaitMs)
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
