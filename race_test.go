// Race smoke tests: short configurations that push every parallelized
// path — per-peer training, the combination searches, per-peer
// decisions, the per-policy trade-off loop, and the sweep helpers —
// through the worker pool with parallelism > 1. Run under the race
// detector (make test-race / go test -race) these catch any shared
// mutable state the determinism tests cannot see.
package waitornot_test

import (
	"context"
	"sync"
	"testing"

	"waitornot"
	"waitornot/internal/bfl"
	"waitornot/internal/chain"
	"waitornot/internal/core"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
	"waitornot/internal/testutil"
)

func TestRaceSmokeDecentralized(t *testing.T) {
	cfg := bfl.Config{
		Model:         nn.ModelSimpleNN,
		Peers:         4,
		Rounds:        1,
		Seed:          9,
		TrainPerPeer:  60,
		SelectionSize: 30,
		TestPerPeer:   30,
		EvalAllCombos: true,
		Filter:        core.Filter{MaxBelowBest: 0.5},
		Parallelism:   8,
	}
	res, err := bfl.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 || len(res.Rounds[0]) != 1 {
		t.Fatalf("unexpected shape: %d peers, %d rounds", len(res.Rounds), len(res.Rounds[0]))
	}
}

func TestRaceSmokeTradeoff(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          1,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		StragglerFactor: []float64{1, 1, 3},
		Parallelism:     8,
	}
	rep := testutil.Run(t, opts, waitornot.WithKind(waitornot.KindTradeoff), waitornot.WithPolicies(waitornot.DefaultPolicies(3)...)).Tradeoff
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %+v", rep.Runs)
	}
}

func TestRaceSmokeVanilla(t *testing.T) {
	opts := waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        4,
		Rounds:         1,
		Seed:           9,
		TrainPerClient: 60,
		SelectionSize:  30,
		TestPerClient:  30,
		Parallelism:    8,
	}
	testutil.Run(t, opts, waitornot.WithKind(waitornot.KindVanilla))
}

// TestRaceSmokeObserver pushes the event layer through the concurrent
// paths: round events from the parallel decentralized run and the
// order-restoring SweepProgress emitter of the concurrent trade-off
// sweep, with an observer attached and a live context.
func TestRaceSmokeObserver(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          1,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		Parallelism:     8,
	}
	var events int
	obs := waitornot.ObserverFunc(func(waitornot.Event) { events++ })
	if _, err := waitornot.New(opts, waitornot.WithObserver(obs)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	opts.StragglerFactor = []float64{1, 1, 3}
	if _, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithObserver(obs)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("observer saw no events")
	}
}

func TestRaceSmokeSweeps(t *testing.T) {
	if _, err := waitornot.ThroughputVsPeers([]int{2, 4, 8}, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := waitornot.ThroughputVsBlockGas([]uint64{1_000_000, 10_000_000}, 100_000, 9); err != nil {
		t.Fatal(err)
	}
}

// TestRaceSmokeSweep pushes the replication sweep through its
// genuinely concurrent paths: seed × policy × backend replications
// racing in the flat work list, the order-restoring SweepProgress
// emitter, and the post-drain statistics accumulation, with enough
// worker budget that replications also parallelize internally.
func TestRaceSmokeSweep(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          1,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		StragglerFactor: []float64{1, 1, 3},
		CommitLatency:   true,
		// 2 seeds x 2 policies x 2 backends = 8 replications;
		// Parallelism 16 leaves each an inner pool of 2.
		Parallelism: 16,
	}
	var events int
	rep, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(waitornot.Policy{}, waitornot.Policy{K: 1}),
		waitornot.WithBackends("pow", "instant"),
		waitornot.WithSeeds(9, 10),
		waitornot.WithObserverFunc(func(waitornot.Event) { events++ })).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 8 || len(rep.Cells) != 4 {
		t.Fatalf("runs=%d cells=%d, want 8/4", len(rep.Runs), len(rep.Cells))
	}
	if events != 8 {
		t.Fatalf("observer saw %d SweepProgress events, want 8", events)
	}
}

// TestRaceSmokeSweepSharedWorld runs concurrent sweep cells over one
// shared world per seed: 2 seeds x 4 backends x 2 policies at
// Parallelism 4, so up to four cells read a seed's data sets, initial
// weights and (pbft) lazily built verification set at once, while
// worlds are built and dropped across the seed boundary.
func TestRaceSmokeSweepSharedWorld(t *testing.T) {
	opts := testutil.TinyStreamOptions()
	opts.Rounds = 1
	opts.StragglerFactor = []float64{1, 1, 3}
	opts.CommitLatency = true
	opts.Parallelism = 4
	rep, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(waitornot.Policy{}, waitornot.Policy{K: 1}),
		waitornot.WithBackends("pow", "poa", "pbft", "instant"),
		waitornot.WithSeeds(9, 10)).RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 16 {
		t.Fatalf("runs = %d, want 16", len(rep.Runs))
	}
}

// TestRaceSmokeConsensusLadder pushes the ledger backends through the
// genuinely concurrent paths. First a 4-peer instant run at
// Parallelism 8 makes the parallel decision workers share the round's
// updates read back from the one committed state; then a backends ×
// policies sweep with enough worker budget for inner parallelism >= 2
// exercises the cross product itself.
func TestRaceSmokeConsensusLadder(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         4,
		Rounds:          1,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		Backend:         "instant",
		Parallelism:     8,
	}
	testutil.Run(t, opts)

	opts.Clients = 3
	opts.StragglerFactor = []float64{1, 1, 3}
	opts.CommitLatency = true
	opts.Backend = ""
	// 2 policies x 3 backends = 6 arms; Parallelism 12 leaves each
	// arm an inner pool of 2, so decision workers inside every arm
	// also run concurrently.
	opts.Parallelism = 12
	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(waitornot.Policy{}, waitornot.Policy{K: 1}),
		waitornot.WithBackends("pow", "poa", "instant")).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tradeoff.Runs) != 6 {
		t.Fatalf("runs = %d, want 6", len(res.Tradeoff.Runs))
	}
}

// TestRaceSmokePBFT pushes the pbft backend's verification path — the
// validation-set evaluator called from inside Commit — through the
// concurrent decision workers, then runs the full four-backend
// consensus ladder as a policies × backends cross product with enough
// worker budget that every arm also parallelizes internally.
func TestRaceSmokePBFT(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         4,
		Rounds:          1,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		Backend:         "pbft",
		Parallelism:     8,
	}
	testutil.Run(t, opts)

	opts.Clients = 3
	opts.StragglerFactor = []float64{1, 1, 3}
	opts.CommitLatency = true
	opts.Backend = ""
	// 2 policies x 4 backends = 8 arms; Parallelism 16 leaves each an
	// inner pool of 2.
	opts.Parallelism = 16
	res, err := waitornot.New(opts,
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithPolicies(waitornot.Policy{}, waitornot.Policy{K: 1}),
		waitornot.WithBackends("pow", "poa", "pbft", "instant")).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tradeoff.Runs) != 8 {
		t.Fatalf("runs = %d, want 8", len(res.Tradeoff.Runs))
	}
}

// TestRaceSmokeVerifyCache hammers the per-transaction memo — digest,
// hash, signature verdict, decoded payload: the whole verify-once
// mechanism — from every direction at once: six goroutines run
// independent poa and pbft ledgers over the SAME signed transactions,
// so the race detector sees concurrent first-use memoization and
// concurrent verdict reads and writes on shared *chain.Transaction
// values, while every commit re-verifies the batch it seals.
func TestRaceSmokeVerifyCache(t *testing.T) {
	const peers, rounds, replicas = 4, 3, 3
	ccfg := chain.DefaultConfig()
	ccfg.GenesisDifficulty = 4
	ccfg.MinDifficulty = 1
	ks := make([]*keys.Key, peers)
	alloc := make(map[keys.Address]uint64, peers)
	sealers := make([]keys.Address, peers)
	for i := range ks {
		ks[i] = keys.GenerateDeterministic(uint64(7100 + i))
		alloc[ks[i].Address()] = 1 << 62
		sealers[i] = ks[i].Address()
	}
	to := keys.GenerateDeterministic(7199).Address()
	txs := make([][]*chain.Transaction, rounds)
	for r := range txs {
		txs[r] = make([]*chain.Transaction, peers)
		for i, k := range ks {
			tx, err := chain.NewTx(k, uint64(r), to, 1, []byte{byte(r), byte(i)}, ccfg.Gas, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			txs[r][i] = tx
		}
	}
	var wg sync.WaitGroup
	for _, name := range []string{"poa", "pbft"} {
		for rep := 0; rep < replicas; rep++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				be, err := ledger.New(name, ledger.Config{
					Peers: peers, Chain: ccfg, Alloc: alloc, Sealers: sealers,
				})
				if err != nil {
					t.Error(err)
					return
				}
				for r := 0; r < rounds; r++ {
					for _, tx := range txs[r] {
						if err := be.Submit(tx); err != nil {
							t.Errorf("%s: submit round %d: %v", name, r, err)
							return
						}
					}
					c, err := be.Commit(r%peers, uint64(r+1)*1000)
					if err != nil {
						t.Errorf("%s: commit round %d: %v", name, r, err)
						return
					}
					if c.Txs != peers {
						t.Errorf("%s: round %d committed %d of %d txs", name, r, c.Txs, peers)
						return
					}
				}
			}(name)
		}
	}
	wg.Wait()
}

// TestRaceSmokeAsync runs the asynchronous engine alongside itself at
// Parallelism 4: each peer's local training runs on a worker between
// its round's opening and completion events while the clock goroutine
// merges, signs and commits, and a time budget that lands mid-training
// (the straggler trains 720 virtual ms a round) leaves a round never
// started. The race detector patrols that hand-off as well as the
// ledger reads, the observer sink, and the shared scenario/backend
// registries.
func TestRaceSmokeAsync(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          4,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		StragglerFactor: []float64{1, 1, 3000},
		CommitLatency:   true,
		Policy:          waitornot.Policy{K: 2},
		TimeBudgetMs:    2500,
		Parallelism:     4,
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindAsync),
				waitornot.WithObserverFunc(func(waitornot.Event) {})).Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if res.Async == nil {
				t.Error("no async report")
			}
		}()
	}
	wg.Wait()
}

// TestRaceSmokeCampaign pushes the durable campaign through its
// genuinely concurrent paths: worker-pool cells racing to Append on
// the shared log (mutex-serialized fsync'd writes in completion
// order), the order-restoring SweepProgress emitter, and the
// restore path folding persisted records back in under a second,
// resumed run.
func TestRaceSmokeCampaign(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          1,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		StragglerFactor: []float64{1, 1, 3},
		CommitLatency:   true,
		// 2 seeds x 2 policies x 2 backends = 8 cells; Parallelism 16
		// leaves each an inner pool of 2, so appends race for real.
		Parallelism: 16,
	}
	exp := func() *waitornot.Experiment {
		return waitornot.New(opts,
			waitornot.WithKind(waitornot.KindTradeoff),
			waitornot.WithPolicies(waitornot.Policy{}, waitornot.Policy{K: 1}),
			waitornot.WithBackends("pow", "instant"),
			waitornot.WithSeeds(9, 10),
			waitornot.WithObserverFunc(func(waitornot.Event) {}))
	}
	dir := t.TempDir()
	rep, err := exp().RunCampaign(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 8 {
		t.Fatalf("runs = %d, want 8", len(rep.Runs))
	}
	// Resume over the finished log: pure restore, still race-patrolled.
	if _, err := exp().RunCampaign(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
}

// TestRaceSmokeSubsampled pushes the cross-device path through the
// pool: a subsampled fleet (ClientFraction) whose cohort setup, per
// participant training, and ragged result appends all run on 8
// workers, both barriered and on the async free run — and, on the
// poa sealing core, the decide pool reading the round's shared decoded
// updates (one vector per submission, read by all K peers).
func TestRaceSmokeSubsampled(t *testing.T) {
	opts := waitornot.Options{
		Model:          waitornot.SimpleNN,
		Clients:        50,
		ClientFraction: 0.1, // K = 5 of 50
		Rounds:         2,
		Seed:           9,
		TrainPerClient: 60,
		SelectionSize:  30,
		TestPerClient:  30,
		Backend:        "instant",
		Parallelism:    8,
	}
	rep := testutil.Run(t, opts).Decentralized
	total := 0
	for _, rounds := range rep.Rounds {
		total += len(rounds)
	}
	if total != 10 {
		t.Fatalf("participant-rounds = %d, want 2 rounds x K=5", total)
	}

	poa := opts
	poa.Clients, poa.ClientFraction = 12, 0.5 // K = 6 of 12 on the sealing core
	poa.Backend, poa.CommitLatency = "poa", true
	for _, rounds := range testutil.Run(t, poa).Decentralized.Rounds {
		for _, r := range rounds {
			if r.Included != 6 {
				t.Fatalf("poa K-of-N round included %d updates, want all 6", r.Included)
			}
		}
	}

	opts.CommitLatency = true
	opts.Policy = waitornot.Policy{K: 2}
	res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindAsync)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Async == nil {
		t.Fatal("no async report")
	}
}

func TestRaceSmokeSharded(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         4,
		Rounds:          2,
		Seed:            9,
		TrainPerClient:  60,
		SelectionSize:   30,
		TestPerClient:   30,
		SkipComboTables: true,
		StragglerFactor: []float64{1, 1, 1, 3},
		CommitLatency:   true,
		MergeMode:       waitornot.MergeAsync,
		AdaptiveShards:  true,
		Parallelism:     8,
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindSharded),
				waitornot.WithObserverFunc(func(waitornot.Event) {})).Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if res.Sharded == nil || len(res.Sharded.Shards) != 2 || len(res.Sharded.Merges) == 0 {
				t.Errorf("sharded report shape off: %+v", res.Sharded)
			}
		}()
	}
	wg.Wait()
}
