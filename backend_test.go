// Consensus-backend tests at the public API level: the pow backend
// must reproduce the legacy default bit-identically, every backend
// must preserve FL semantics, commit-latency modeling must shape wait
// times by substrate, and the registry must accept parameter variants.
package waitornot_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"waitornot"
	"waitornot/internal/bfl"
	"waitornot/internal/testutil"
)

// backendOpts is the tiny decentralized run the backend tests share
// (the same baseline as the determinism suite — see internal/testutil).
func backendOpts() waitornot.Options { return testutil.TinyOptions() }

// TestPowBackendMatchesLegacyDefault pins that a run with no backend
// named and WithBackend("pow") produce byte-identical decentralized
// reports at Parallelism 1 and at NumCPU — i.e. the default resolves
// to pow. Both
// sides intentionally run the in-tree code: equality against the
// actual pre-ledger runner cannot be pinned portably (report bytes
// embed trained float32 weights, which vary across architectures), so
// it was established empirically at PR time by hashing reports from a
// pre-PR worktree build — bit-identical at Parallelism 1 and NumCPU.
func TestPowBackendMatchesLegacyDefault(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		opts := backendOpts()
		opts.Parallelism = parallelism
		legacy := testutil.Run(t, opts).Decentralized
		res, err := waitornot.New(opts, waitornot.WithBackend("pow")).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, res.Decentralized) {
			t.Fatalf("parallelism %d: pow backend diverged from the legacy default", parallelism)
		}
		goldenEqual(t, "pow-vs-legacy", legacy, res.Decentralized)
	}
}

// TestBackendsPreserveFLSemantics: with commit-latency modeling off,
// the consensus substrate must be invisible to learning — identical
// per-round decisions, accuracies, and combo grids across pow, poa,
// pbft, and instant. Only the ledger footprint may differ. For pbft
// this additionally pins that model verification never rejects a
// clean-data submission at this scale.
func TestBackendsPreserveFLSemantics(t *testing.T) {
	opts := backendOpts()
	base := testutil.Run(t, opts).Decentralized
	for _, backend := range []string{"poa", "instant", "pbft"} {
		o := opts
		o.Backend = backend
		res, err := waitornot.New(o).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		rep := res.Decentralized
		if !reflect.DeepEqual(base.Rounds, rep.Rounds) {
			t.Fatalf("%s: per-round decisions diverged from pow", backend)
		}
		if !reflect.DeepEqual(base.ComboAccuracy, rep.ComboAccuracy) {
			t.Fatalf("%s: combo tables diverged from pow", backend)
		}
		if rep.Chain.Submissions != base.Chain.Submissions || rep.Chain.Decisions != base.Chain.Decisions {
			t.Fatalf("%s: contract call counts diverged: %+v vs %+v", backend, rep.Chain, base.Chain)
		}
		if rep.Chain.VerifyRejected != 0 {
			t.Fatalf("%s: verification rejected %d clean submissions", backend, rep.Chain.VerifyRejected)
		}
	}
}

// TestPBFTVerificationFiltersPoison reuses the poisoning scenario's
// attacker (client C label-flips its whole shard) at a scale where
// clean models separate from the poisoned one on the validation set.
// pbft's model verification must reject the poisoned submission every
// round — excluding it from every clean peer's on-chain batch — while
// pow and poa accept it on-ledger; the per-peer combo tables expose
// the accuracy gap the verifier keys on.
func TestPBFTVerificationFiltersPoison(t *testing.T) {
	opts := backendOpts()
	opts.TrainPerClient = 600
	opts.SelectionSize = 200
	opts.LearningRate = 0.05
	opts.PoisonClient = 2
	opts.PoisonFraction = 1

	reports := map[string]*waitornot.DecentralizedReport{}
	for _, backend := range []string{"pow", "poa", "pbft"} {
		o := opts
		o.Backend = backend
		res, err := waitornot.New(o).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		rep := res.Decentralized
		reports[backend] = rep
	}

	// pow and poa accept the poisoned submission on-ledger; pbft
	// rejects it in every round's submission block.
	for _, backend := range []string{"pow", "poa"} {
		if n := reports[backend].Chain.VerifyRejected; n != 0 {
			t.Fatalf("%s rejected %d submissions; it has no model verification", backend, n)
		}
	}
	pbft := reports["pbft"]
	if pbft.Chain.VerifyRejected != opts.Rounds {
		t.Fatalf("pbft rejected %d submissions, want the poisoned one each of %d rounds",
			pbft.Chain.VerifyRejected, opts.Rounds)
	}

	// The rejection is visible in the batches: clean peers aggregate
	// without the poisoned update under pbft (their own + one clean
	// remote), with it under pow. The poisoned peer always keeps its
	// own local update, so its batch stays full.
	pow := reports["pow"]
	for p := 0; p < 2; p++ {
		for r := range pbft.Rounds[p] {
			if got, want := pow.Rounds[p][r].Included, opts.Clients; got != want {
				t.Fatalf("pow peer %d round %d included %d updates, want %d", p, r+1, got, want)
			}
			if got, want := pbft.Rounds[p][r].Included, opts.Clients-1; got != want {
				t.Fatalf("pbft peer %d round %d included %d updates, want %d (poison excluded)", p, r+1, got, want)
			}
		}
	}

	// The accuracy gap the verifier keys on: the poisoned model alone
	// (the poisoned peer's solo combo, first row of its table) scores
	// far below the best combination on the same clean test set.
	last := len(pbft.ComboAccuracy[opts.PoisonClient]) - 1
	row := pbft.ComboAccuracy[opts.PoisonClient][last]
	poisoned, best := row[0], row[0]
	for _, acc := range row {
		if acc > best {
			best = acc
		}
	}
	if gap := best - poisoned; gap < 0.1 {
		t.Fatalf("poisoned solo model within %.3f of the best combo (%.3f vs %.3f); no gap to verify against",
			gap, poisoned, best)
	}
}

// TestCommitLatencyShapesWaits: with modeling on, a wait-all peer's
// round wait is quantized to the backend's commit interval — pow
// (1000 ms) > poa (200 ms) > instant (raw arrival) — while the
// learning outcome stays untouched by the substrate.
func TestCommitLatencyShapesWaits(t *testing.T) {
	waits := map[string]float64{}
	for _, backend := range []string{"pow", "poa", "instant"} {
		opts := backendOpts()
		opts.Rounds = 1
		opts.SkipComboTables = true
		opts.Backend = backend
		opts.CommitLatency = true
		res, err := waitornot.New(opts).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		rep := res.Decentralized
		waits[backend] = rep.Rounds[0][0].WaitMs
	}
	if !(waits["pow"] > waits["poa"] && waits["poa"] > waits["instant"]) {
		t.Fatalf("commit latency must order the backends pow > poa > instant, got %v", waits)
	}
	if waits["pow"] != 1000 {
		t.Fatalf("pow wait-all wait = %v ms, want quantized to the 1000 ms block interval", waits["pow"])
	}
	if waits["poa"] != 200 {
		t.Fatalf("poa wait-all wait = %v ms, want quantized to the 200 ms sealing slot", waits["poa"])
	}
}

// registerGlacial registers TestRegisterBackendSpec's variant once per
// process: the registry is process-global, so a second pass of the test
// (go test -count=2) sees the name already taken.
var registerGlacial = sync.OnceValue(func() error {
	return waitornot.RegisterBackend(waitornot.BackendSpec{
		Name:            "pow-glacial-test",
		Description:     "PoW at a 4s block interval",
		Base:            "pow",
		BlockIntervalMs: 4000,
	})
})

// TestRegisterBackendSpec drives the public registry: a pow variant
// with a slower block interval becomes selectable by name, shows up in
// listings, and its interval reaches the wait policies.
func TestRegisterBackendSpec(t *testing.T) {
	if err := registerGlacial(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range waitornot.Backends() {
		if b.Name == "pow-glacial-test" {
			found = b.Description != ""
		}
	}
	if !found {
		t.Fatalf("registered variant missing from Backends(): %v", waitornot.Backends())
	}

	opts := backendOpts()
	opts.Rounds = 1
	opts.SkipComboTables = true
	opts.Backend = "pow-glacial-test"
	opts.CommitLatency = true
	rep := testutil.Run(t, opts).Decentralized
	if got := rep.Rounds[0][0].WaitMs; got != 4000 {
		t.Fatalf("variant wait = %v ms, want quantized to its 4000 ms interval", got)
	}

	// The runner's round clock follows the variant's interval, so PoW
	// difficulty holds its retarget equilibrium across rounds instead
	// of climbing on every block.
	rwc, err := bfl.RunDecentralizedWithChain(bfl.Config{
		Peers:         3,
		Rounds:        3,
		Seed:          7,
		TrainPerPeer:  60,
		SelectionSize: 30,
		TestPerPeer:   30,
		Backend:       "pow-glacial-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := rwc.CanonicalChain
	if first, last := blocks[1].Header.Difficulty, blocks[len(blocks)-1].Header.Difficulty; last != first {
		t.Fatalf("difficulty drifted %d -> %d over %d blocks: round clock not following the variant interval",
			first, last, len(blocks)-1)
	}

	// Rejections — unknown base, empty and duplicate names, a committee
	// PBFT cannot run — leave nothing listed that Run cannot construct.
	for _, spec := range []waitornot.BackendSpec{
		{Name: "x", Base: "no-such-base"},
		{Base: "pow"},
		{Name: "pow-glacial-test", Base: "pow"},
		{Name: "pbft-3-test", Base: "pbft", Validators: 3},
		{Name: "pbft-negative-test", Base: "pbft", Validators: -1},
	} {
		if err := waitornot.RegisterBackend(spec); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
	for _, b := range waitornot.Backends() {
		if b.Name == "pbft-3-test" || b.Name == "pbft-negative-test" {
			t.Fatalf("rejected spec listed: %v", waitornot.Backends())
		}
	}
}

// TestUnknownBackendRejected: Options.Validate and Run must name the
// miss and the registered backends.
func TestUnknownBackendRejected(t *testing.T) {
	opts := backendOpts()
	opts.Backend = "no-such-backend"
	err := opts.Validate()
	if err == nil {
		t.Fatal("unknown backend validated")
	}
	if !strings.Contains(err.Error(), "no-such-backend") || !strings.Contains(err.Error(), "pow") {
		t.Fatalf("error should name the miss and the registry: %v", err)
	}
	if _, runErr := waitornot.New(opts).Run(context.Background()); runErr == nil {
		t.Fatal("Run accepted an unknown backend")
	}
}

// TestConsensusLadderScenario shrinks the registered backends × wait
// policies sweep to test scale and checks its cross-product shape:
// one frontier per substrate, outcomes labeled, instant included.
func TestConsensusLadderScenario(t *testing.T) {
	s, ok := waitornot.LookupScenario("consensus-ladder")
	if !ok {
		t.Fatal("consensus-ladder not registered")
	}
	s.Options.Rounds = 1
	s.Options.TrainPerClient = 60
	s.Options.SelectionSize = 30
	s.Options.TestPerClient = 30
	s.Options.LearningRate = 0.01
	res, err := s.Experiment(waitornot.WithSeed(11)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tradeoff == nil || res.Scenario != "consensus-ladder" {
		t.Fatalf("results = %+v", res)
	}
	outcomes := res.Tradeoff.Runs
	if len(outcomes) != len(s.Backends)*len(s.Policies) {
		t.Fatalf("got %d outcomes, want backends x policies = %d", len(outcomes), len(s.Backends)*len(s.Policies))
	}
	perBackend := map[string]int{}
	for _, o := range outcomes {
		perBackend[o.Backend]++
	}
	for _, b := range s.Backends {
		if perBackend[b] != len(s.Policies) {
			t.Fatalf("backend %q ran %d policies, want %d (outcomes %+v)", b, perBackend[b], len(s.Policies), perBackend)
		}
	}
	// The ladder's point: under wait-all, commit latency orders the
	// substrates. Outcomes are backend-major in registration order
	// (pow, poa, pbft, instant), policy 0 = wait-all. pbft's modeled
	// three-phase latency (75 ms at the default n=4 committee) sits
	// between poa's 200 ms sealing slot and instant's zero.
	n := len(s.Policies)
	powWait, poaWait, pbftWait, instWait :=
		outcomes[0].MeanWaitMs, outcomes[n].MeanWaitMs, outcomes[2*n].MeanWaitMs, outcomes[3*n].MeanWaitMs
	if !(powWait > poaWait && poaWait > pbftWait && pbftWait > instWait) {
		t.Fatalf("wait-all mean waits must order pow > poa > pbft > instant, got %v > %v > %v > %v",
			powWait, poaWait, pbftWait, instWait)
	}
	// And the table renders the backend column.
	if table := res.Tradeoff.Table(); !strings.Contains(table, "backend") || !strings.Contains(table, "instant") {
		t.Fatalf("ladder table missing backend column:\n%s", table)
	}
}
