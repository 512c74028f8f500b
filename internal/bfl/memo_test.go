package bfl

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
	"waitornot/internal/par"
)

// ladderConfigs is the ladder-sweep benchmark workload's grid at one
// seed, as its sweep runs each cell: 4 backends × 3 wait policies, 3
// peers with a 3x straggler, 2 rounds, commit latency on, one worker.
func ladderConfigs(seed uint64) []Config {
	h := fl.DefaultHyper(nn.ModelSimpleNN)
	h.LR, h.LocalEpochs = 0.03, 2
	var out []Config
	for _, b := range []string{"pow", "poa", "pbft", "instant"} {
		for _, p := range []core.Policy{core.Policy{}, core.Policy{K: 2}, core.Policy{K: 1}} {
			out = append(out, Config{Peers: 3, Rounds: 2, Seed: seed, TrainPerPeer: 100, SelectionSize: 120,
				TestPerPeer: 100, Hyper: h, Policy: p, Backend: b, CommitLatency: true,
				StragglerFactor: []float64{1, 1, 3}, Parallelism: 1})
		}
	}
	return out
}

// runShared runs every configuration on one world Shared by all of
// them, on workers goroutines as a sweep schedules its cells; observe
// sees run i's events.
func runShared(ctx context.Context, w *World, cfgs []Config, workers int, observe func(i int, ev event.Event)) ([]*Result, []error) {
	w.Share(len(cfgs))
	out, errs := make([]*Result, len(cfgs)), make([]error, len(cfgs))
	par.ForEach(workers, len(cfgs), func(i int) error {
		c := cfgs[i]
		c.World, c.Events = w, func(ev event.Event) { observe(i, ev) }
		out[i], errs[i] = Run(ctx, c)
		return nil
	})
	return out, errs
}

// within fails the test unless f returns within d.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not return within %v", d)
	}
}

// memoEmpty reports whether the memo holds no round's table.
func memoEmpty(m *memo) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tab := range m.rounds {
		if tab != nil {
			return false
		}
	}
	return true
}

// TestMemoTrainsEachModelOnce: at the ladder-sweep shape, seed 1, the
// twelve runs sharing a world make 72 trainings and 264 scorings
// between them, of which 9 and 51 are distinct — and the memo computes
// exactly those, on two workers. Each shared trained update is
// bit-equal, at every run's round end and so at its round's release,
// to what was inserted (hashed when its run's training pool finished);
// every run is deeply equal to the same configuration run alone; and
// the memo is empty once the last run lands.
func TestMemoTrainsEachModelOnce(t *testing.T) {
	cfgs := ladderConfigs(1)
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[*memoEntry]bool{}         // every entry seen
	inserted := map[*memoEntry][32]byte{} // each training's weights when first seen
	observe := func(_ int, ev event.Event) {
		var round int
		switch ev := ev.(type) {
		case event.PeerTrained:
			round = ev.Round
		case event.RoundEnd:
			round = ev.Round
		default:
			return
		}
		mu.Lock()
		defer mu.Unlock()
		w.memo.mu.Lock()
		defer w.memo.mu.Unlock()
		for k, en := range w.memo.rounds[round] {
			if k.set == nil {
				continue // a chain-side product or an adopted vector: TestMemoSignsEachTransactionOnce, TestMemoScoresEachSubmissionOnce
			}
			select {
			case <-en.done:
			default:
				continue // another run is computing it
			}
			seen[en] = true
			if k.hyper == (fl.Hyper{}) {
				continue // a scoring
			}
			h := nn.HashWeights(en.up.Weights)
			if was, ok := inserted[en]; !ok {
				inserted[en] = h
			} else if h != was {
				t.Errorf("round %d: %s's shared trained update changed after insertion", round, en.up.Client)
			}
		}
	}
	shared, errs := runShared(context.Background(), w, cfgs, 2, observe)
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s/%s: %v", cfg.Backend, cfg.Policy.Name(), errs[i])
		}
		solo, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared[i], solo) {
			t.Errorf("%s/%s: the run sharing the memo differs from the run alone", cfg.Backend, cfg.Policy.Name())
		}
	}
	if !memoEmpty(w.memo) {
		t.Error("the memo holds entries after the last run landed")
	}
	trained := len(inserted)
	if scored := len(seen) - trained; trained != 9 || scored != 51 {
		t.Errorf("computed %d trainings and %d scorings, want the 9 and 51 distinct ones", trained, scored)
	}
}

// TestMemoReleasesPassedRounds: three runs on one worker, in order, so
// that the last one is the last to pass every round. Round q's table is
// there until the last run has passed q and gone the moment it has.
func TestMemoReleasesPassedRounds(t *testing.T) {
	cfgs := ladderConfigs(1)[:3]
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	last := len(cfgs) - 1
	held := func(q int) bool {
		w.memo.mu.Lock()
		defer w.memo.mu.Unlock()
		return w.memo.rounds[q] != nil
	}
	_, errs := runShared(context.Background(), w, cfgs, 1, func(i int, ev event.Event) {
		switch ev := ev.(type) {
		case event.RoundStart:
			for q := 1; q < ev.Round; q++ {
				if held(q) != (i < last) {
					t.Errorf("run %d at round %d: round %d held = %v, want %v", i, ev.Round, q, held(q), i < last)
				}
			}
		case event.RoundEnd:
			if !held(ev.Round) {
				t.Errorf("run %d: round %d released before the run passed it", i, ev.Round)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !memoEmpty(w.memo) {
		t.Fatal("the memo holds entries after the last run landed")
	}
}

// TestMemoFailureReachesWaiters: a computation that fails — with an
// error or a panic — in the run computing it is the error of a run
// needing the same entry, training and scoring alike, and that run
// returns.
func TestMemoFailureReachesWaiters(t *testing.T) {
	base := ladderConfigs(1)[0]
	for _, tc := range []struct {
		name  string
		async bool
		fill  func(*memoEntry)
		want  string
	}{
		{"training error", false, func(en *memoEntry) { en.err = errors.New("refused") }, "refused"},
		{"training panic", false, func(*memoEntry) { panic("boom") }, "round 1 failed in another run"},
		{"scoring panic", true, func(*memoEntry) { panic("boom") }, "round 0 failed in another run"},
	} {
		w, err := NewWorld(base)
		if err != nil {
			t.Fatal(err)
		}
		w.Share(2)
		// The other run: the entry the waiter needs first — slot 0's
		// round-1 training from the initial weights, or (async) its
		// initial test accuracy — fails once the waiter has started.
		round, key := 1, memoKey{set: w.train[0], hyper: base.withDefaults().Hyper, weights: w.initialKey}
		if tc.async {
			round, key = 0, memoKey{set: w.test[0], weights: w.initialKey}
		}
		inserted, started, computed := make(chan struct{}), make(chan struct{}), make(chan any, 1)
		go func() {
			defer func() { computed <- recover() }()
			w.memo.do(round, key, fl.Vector(w.initial), func(en *memoEntry) {
				close(inserted)
				<-started
				tc.fill(en)
			})
		}()
		<-inserted
		cfg := base
		cfg.World = w
		var once sync.Once
		cfg.Events = func(event.Event) { once.Do(func() { close(started) }) }
		within(t, 30*time.Second, func() {
			if tc.async {
				_, err = RunAsync(context.Background(), cfg)
			} else {
				_, err = Run(context.Background(), cfg)
			}
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: the waiting run returned %v, want an error containing %q", tc.name, err, tc.want)
		}
		if v := <-computed; (v != nil) != strings.Contains(tc.name, "panic") {
			t.Errorf("%s: the computing run recovered %v", tc.name, v)
		}
	}

	// A failed score met inside the decide pool: one run fills the
	// memo, its round-1 selection scores are then marked failed, and a
	// second run needing them returns the failure as its error.
	w, err := NewWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	w.Share(3)
	cfg := base
	cfg.World = w
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	w.memo.mu.Lock()
	for k, en := range w.memo.rounds[1] {
		if k.set == w.sel[0] {
			en.err = errors.New("scored nothing")
		}
	}
	w.memo.mu.Unlock()
	within(t, 30*time.Second, func() { _, err = Run(context.Background(), cfg) })
	if err == nil || !strings.Contains(err.Error(), "scored nothing") {
		t.Errorf("decide pool: the waiting run returned %v, want the failed score's error", err)
	}
}

// TestMemoCancelledMidRound: twelve runs sharing the memo, all started
// at once; the first to submit in round 2, where trainings hit, cancels
// the context. Every run returns, and the memo is released.
func TestMemoCancelledMidRound(t *testing.T) {
	cfgs := ladderConfigs(1)
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var errs []error
	within(t, 60*time.Second, func() {
		_, errs = runShared(ctx, w, cfgs, len(cfgs), func(_ int, ev event.Event) {
			if sub, ok := ev.(event.ModelSubmitted); ok && sub.Round == 2 {
				cancel()
			}
		})
	})
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if cancelled == 0 {
		t.Fatal("no run saw the cancellation")
	}
	if !memoEmpty(w.memo) {
		t.Fatal("the memo holds entries after every run returned")
	}
}

// TestMemoKeysHyperparameters: a world does not fix the training
// hyperparameters, so two runs sharing one at two learning rates train
// apart, each deeply equal to its run alone.
func TestMemoKeysHyperparameters(t *testing.T) {
	cfgs := ladderConfigs(1)[:2]
	cfgs[1].Policy, cfgs[1].Hyper.LR = cfgs[0].Policy, 0.01
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	shared, errs := runShared(context.Background(), w, cfgs, 2, func(int, event.Event) {})
	for i, cfg := range cfgs {
		solo, err := Run(context.Background(), cfg)
		if errs[i] != nil || err != nil {
			t.Fatal(errs[i], err)
		}
		if !reflect.DeepEqual(shared[i], solo) {
			t.Errorf("learning rate %g: the run sharing the memo differs from the run alone", cfg.Hyper.LR)
		}
	}
}

// TestMemoKeysNeverConfuse: a provenance key never names two weight
// vectors. The ladder-sweep grid at seed 1, and the same grid run async
// with the filter armed (update keys in the filter, staleness
// coefficients in every merge key), each on one shared world: every
// vector looked up under one key hashes alike, so every hit under the
// key is a hit under the weights' hash too, and on these grids the
// converse holds as well. A world never Shared names nothing, so a run
// on it builds no key; Shared by one run, it keys as for many.
func TestMemoKeysNeverConfuse(t *testing.T) {
	filtered := ladderConfigs(1)
	for i := range filtered {
		filtered[i].Filter = core.Filter{MaxBelowBest: 0.2}
	}
	for _, grid := range []struct {
		name  string
		cfgs  []Config
		async bool
	}{{"barriered", ladderConfigs(1), false}, {"async", filtered, true}} {
		w, err := NewWorld(grid.cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		if w.initialKey != (fl.Key{}) || w.memo != nil {
			t.Fatal("a world never Shared names its initial weights or keeps a memo")
		}
		if w.Share(1); w.initialKey == (fl.Key{}) || w.memo == nil || w.memo.runs != 1 {
			t.Fatal("a world Shared by its one run does not name its initial weights in a one-run memo")
		}
		w.Share(len(grid.cfgs))
		// hashKey is what the memo keyed a lookup by before provenance.
		type hashKey struct {
			set   *dataset.Set
			hyper fl.Hyper
			hash  [32]byte
		}
		var mu sync.Mutex
		hashOf := map[memoKey][32]byte{}
		byKey, byHash := map[int]map[memoKey]bool{}, map[int]map[hashKey]bool{}
		lookups, hits := 0, 0
		w.memo.seen = func(round int, k memoKey, weights []float32) {
			h := nn.HashWeights(weights)
			mu.Lock()
			defer mu.Unlock()
			if was, ok := hashOf[k]; ok && was != h {
				t.Errorf("%s round %d: one key names two weight vectors", grid.name, round)
			}
			hashOf[k] = h
			if byKey[round] == nil {
				byKey[round], byHash[round] = map[memoKey]bool{}, map[hashKey]bool{}
			}
			hk := hashKey{k.set, k.hyper, h}
			if lookups++; byKey[round][k] {
				hits++
				if !byHash[round][hk] {
					t.Errorf("%s round %d: a hit under the key misses under the weights' hash", grid.name, round)
				}
			}
			byKey[round][k], byHash[round][hk] = true, true
		}
		par.ForEach(2, len(grid.cfgs), func(i int) error {
			c := grid.cfgs[i]
			c.World = w
			var err error
			if grid.async {
				_, err = RunAsync(context.Background(), c)
			} else {
				_, err = Run(context.Background(), c)
			}
			if err != nil {
				t.Errorf("%s %s/%s: %v", grid.name, c.Backend, c.Policy.Name(), err)
			}
			return nil
		})
		missed := 0
		for r := range byKey {
			missed += len(byKey[r]) - len(byHash[r])
		}
		t.Logf("%s: %d lookups, %d hits", grid.name, lookups, hits)
		if hits == 0 {
			t.Errorf("%s: no lookup hit, so nothing was checked", grid.name)
		}
		if missed != 0 {
			t.Errorf("%s: %d lookups miss under the key that hit under the weights' hash", grid.name, missed)
		}
		if !memoEmpty(w.memo) {
			t.Errorf("%s: the memo holds entries after the last run landed", grid.name)
		}
	}
}

// TestMemoSignsEachTransactionOnce: the ladder-sweep grid at seed 1 on
// one shared world signs each transaction once. For registrations,
// submissions and records alike, the memo signs exactly one
// transaction per distinct (signer, nonce, payload) the runs commit —
// 9 submissions for the grid's 72 — and runs hand each other the same
// *chain.Transaction. Every run commits exactly what it signs alone:
// each committed transaction hashes as the one its solo run freshly
// signed at the same place, and each chain, block by block, is the
// solo run's. A struct copy of a shared submission with one payload
// byte flipped is still refused by a run that committed the original,
// whose own verdict stands.
func TestMemoSignsEachTransactionOnce(t *testing.T) {
	cfgs := ladderConfigs(1)
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	w.Share(len(cfgs))
	var mu sync.Mutex
	signed := map[*memoEntry]memoKey{} // every signing seen in the memo
	shared := make([]*RoundEngine, len(cfgs))
	par.ForEach(2, len(cfgs), func(i int) error {
		c := cfgs[i]
		c.World = w
		c.Events = func(ev event.Event) {
			// A run has not passed a round whose blocks it is committing.
			b, ok := ev.(event.BlockCommitted)
			if !ok {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			w.memo.mu.Lock()
			defer w.memo.mu.Unlock()
			for k, en := range w.memo.rounds[b.Round] {
				if k.from != (keys.Address{}) {
					signed[en] = k
				}
			}
		}
		var err error
		if shared[i], err = runDecentralized(context.Background(), c); err != nil {
			t.Errorf("%s/%s: %v", c.Backend, c.Policy.Name(), err)
		}
		return nil
	})
	if t.Failed() {
		return
	}

	type triple struct {
		from    keys.Address
		nonce   uint64
		payload [32]byte
	}
	distinct := map[string]map[triple]bool{}
	pointers := map[string]map[*chain.Transaction]bool{}
	for i, cfg := range cfgs {
		solo, err := runDecentralized(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := shared[i].e.be.CommittedTxs(0), solo.e.be.CommittedTxs(0)
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d transactions committed, %d alone", cfg.Backend, cfg.Policy.Name(), len(got), len(want))
		}
		for j, tx := range got {
			if tx.Hash() != want[j].Hash() {
				t.Errorf("%s/%s: transaction %d differs from the one the run signs alone", cfg.Backend, cfg.Policy.Name(), j)
			}
			call, err := contract.CallOf(tx)
			if err != nil {
				t.Fatal(err)
			}
			if distinct[call.Method] == nil {
				distinct[call.Method], pointers[call.Method] = map[triple]bool{}, map[*chain.Transaction]bool{}
			}
			distinct[call.Method][triple{tx.From, tx.Nonce, sha256.Sum256(tx.Payload)}] = true
			pointers[call.Method][tx] = true
		}
		if ch, ok := shared[i].e.be.(ledger.Chainer); ok {
			mine, alone := ch.Chain(0), solo.e.be.(ledger.Chainer).Chain(0)
			for j := range max(len(mine), len(alone)) {
				if j >= len(mine) || j >= len(alone) || mine[j].Hash() != alone[j].Hash() {
					t.Errorf("%s/%s: block %d differs from the run's alone", cfg.Backend, cfg.Policy.Name(), j)
					break
				}
			}
		}
	}
	kinds := map[string]int{}
	for _, k := range signed {
		switch {
		case k.nonce == 0:
			kinds["register"]++
		case k.label == "":
			kinds["submit"]++
		default:
			kinds["record"]++
		}
	}
	for _, m := range []string{"register", "submit", "record"} {
		t.Logf("%s: %d signed, %d distinct, %d committed pointers", m, kinds[m], len(distinct[m]), len(pointers[m]))
		if kinds[m] != len(distinct[m]) || len(pointers[m]) != len(distinct[m]) {
			t.Errorf("%s: %d signed and %d transactions shared for %d distinct (signer, nonce, payload)",
				m, kinds[m], len(pointers[m]), len(distinct[m]))
		}
	}
	if kinds["submit"] != 9 {
		t.Errorf("%d submissions signed, want the grid's 9 distinct updates", kinds["submit"])
	}

	// The tampered copy: the original's memo rides along in the struct,
	// but its owner is the original, so the copy is checked afresh.
	be := shared[len(shared)-1].e.be
	for _, tx := range be.CommittedTxs(0) {
		if call, _ := contract.CallOf(tx); call.Method != "submit" || !slices.Contains(shared[0].e.be.CommittedTxs(0), tx) {
			continue
		}
		forged := *tx
		forged.Payload = slices.Clone(tx.Payload)
		forged.Payload[len(forged.Payload)-1] ^= 1
		if err := be.Submit(&forged); !errors.Is(err, chain.ErrBadSig) {
			t.Errorf("a shared submission with one payload byte flipped was admitted: %v", err)
		}
		if err := tx.VerifySignature(); err != nil {
			t.Errorf("the original's verdict changed: %v", err)
		}
		return
	}
	t.Fatal("no submission is shared between the first and the last run")
}

// TestMemoRefusesOutOfRangeRound: a run on a shared world that asks
// the memo for round Rounds+1 fails with an error naming it, and the
// sibling runs started after it finish: the memo never indexes a round
// it lacks while holding its lock.
func TestMemoRefusesOutOfRangeRound(t *testing.T) {
	cfgs := ladderConfigs(1)[:3]
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	w.Share(len(cfgs))
	bad := cfgs[0]
	bad.World = w
	within(t, 60*time.Second, func() {
		r, err := NewRoundEngine(bad)
		if err != nil {
			t.Fatal(err)
		}
		step := r.CommitStepMs()
		if err := r.RegisterAt(step); err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= bad.Rounds+1; round++ {
			_, err = r.RunRoundAt(context.Background(), round, float64(2*round)*step, float64(2*round+1)*step)
			if round <= bad.Rounds && err != nil {
				t.Fatal(err)
			}
		}
		if err == nil || !strings.Contains(err.Error(), "memo round 3") {
			t.Errorf("round %d returned %v, want the memo's out-of-range error", bad.Rounds+1, err)
		}
	})
	errs := make([]error, len(cfgs)-1)
	within(t, 60*time.Second, func() {
		par.ForEach(2, len(errs), func(i int) error {
			c := cfgs[i+1]
			c.World = w
			_, errs[i] = Run(context.Background(), c)
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !memoEmpty(w.memo) {
		t.Error("the memo holds entries after the last run landed")
	}
}

// TestMemoScoresEachSubmissionOnce: the ladder-sweep grid at seed 1 on
// one shared world. pbft's verification scores each distinct
// submission transaction its three cells commit once, and each
// distinct accepted batch's mean once (a batch of one is its
// submission's score); the twelve cells decode each distinct committed
// submission once, pbft's verification and the read-back together.
func TestMemoScoresEachSubmissionOnce(t *testing.T) {
	cfgs := ladderConfigs(1)
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	w.Share(len(cfgs))
	var mu sync.Mutex
	scored, means, decoded := map[*memoEntry]bool{}, map[*memoEntry]bool{}, map[*memoEntry]bool{}
	engines := make([]*RoundEngine, len(cfgs))
	par.ForEach(2, len(cfgs), func(i int) error {
		c := cfgs[i]
		c.World = w
		c.Events = func(ev event.Event) {
			// The run has not passed the round it commits, so every
			// entry it used is in the round's table.
			b, ok := ev.(event.BlockCommitted)
			if !ok {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			w.memo.mu.Lock()
			defer w.memo.mu.Unlock()
			for k, en := range w.memo.rounds[b.Round] {
				switch {
				case k.verify && k.label == "":
					scored[en] = true
				case k.verify:
					means[en] = true
				case k.tx != nil:
					decoded[en] = true
				}
			}
		}
		var err error
		if engines[i], err = runDecentralized(context.Background(), c); err != nil {
			t.Errorf("%s/%s: %v", c.Backend, c.Policy.Name(), err)
		}
		return nil
	})
	if t.Failed() {
		return
	}
	subs, pbftSubs, batches := map[*chain.Transaction]bool{}, map[*chain.Transaction]bool{}, map[string]bool{}
	for i, cfg := range cfgs {
		be := engines[i].e.be
		for _, tx := range be.CommittedTxs(0) {
			if call, _ := contract.CallOf(tx); call.Method == "submit" {
				subs[tx] = true
				if cfg.Backend == "pbft" {
					pbftSubs[tx] = true
				}
			}
		}
		for round := 1; cfg.Backend == "pbft" && round <= cfg.Rounds; round++ {
			var batch string
			accepted := contract.SubmissionsAt(be.StateView(0), uint64(round))
			for _, s := range accepted {
				batch += string(s.TxHash[:])
			}
			if len(accepted) > 1 {
				batches[fmt.Sprint(round, batch)] = true
			}
		}
	}
	t.Logf("%d submissions scored (%d committed by pbft), %d batch means, %d decoded (%d committed)",
		len(scored), len(pbftSubs), len(means), len(decoded), len(subs))
	if len(scored) != len(pbftSubs) {
		t.Errorf("pbft scored %d submissions, want the %d distinct ones its cells commit", len(scored), len(pbftSubs))
	}
	if len(means) != len(batches) {
		t.Errorf("pbft scored %d batch means, want the %d distinct accepted batches", len(means), len(batches))
	}
	if len(decoded) != len(subs) {
		t.Errorf("%d submissions decoded, want the %d distinct ones committed", len(decoded), len(subs))
	}
	if !memoEmpty(w.memo) {
		t.Error("the memo holds entries after the last run landed")
	}
}

// TestSharedAdoptedVectorsReadOnly: on the ladder-sweep grid at seed 1,
// sharing one world, the runs adopt one vector per (round, merge key),
// and nobody writes it: each is hashed when it is first seen filed and
// hashed again once its round's table is released.
func TestSharedAdoptedVectorsReadOnly(t *testing.T) {
	cfgs := ladderConfigs(1)
	w, err := NewWorld(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hashOf, roundOf, checked := map[*memoEntry][32]byte{}, map[*memoEntry]int{}, map[*memoEntry]bool{}
	recheck := func() { // with both locks held
		for en, r := range roundOf {
			if !checked[en] && w.memo.rounds[r] == nil {
				if nn.HashWeights(en.vec) != hashOf[en] {
					t.Errorf("round %d: a shared adopted vector changed before its round was released", r)
				}
				checked[en] = true
			}
		}
	}
	decisions := 0
	_, errs := runShared(context.Background(), w, cfgs, 2, func(_ int, ev event.Event) {
		mu.Lock()
		defer mu.Unlock()
		w.memo.mu.Lock()
		defer w.memo.mu.Unlock()
		switch ev := ev.(type) {
		case event.AggregationDecided:
			decisions++
			for k, en := range w.memo.rounds[ev.Round] {
				select {
				case <-en.done:
				default:
					continue // another run is averaging it
				}
				if _, ok := hashOf[en]; k.mean && !ok {
					hashOf[en], roundOf[en] = nn.HashWeights(en.vec), ev.Round
				}
			}
		case event.RoundStart:
			recheck()
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.memo.mu.Lock()
	recheck()
	w.memo.mu.Unlock()
	t.Logf("%d decisions adopted %d shared vectors", decisions, len(hashOf))
	if len(hashOf) == 0 || len(hashOf) >= decisions {
		t.Errorf("%d decisions adopted %d shared vectors, want fewer, and some", decisions, len(hashOf))
	}
	if len(checked) != len(hashOf) {
		t.Errorf("%d of %d shared vectors checked at release", len(checked), len(hashOf))
	}
}

// TestMemoSoloRunAveragesOnce: a run that builds its own world is that
// world's one run. At the fleet-poa shape (20 clients, 9 sampled a
// round, each keeping all 9 updates, past the 8-update combination cap,
// so adopting their FedAvg), the run averages each adopted vector and
// digests it for the aggregation record once per (round, merge key) —
// once a round here — though each participant asks for it; and it is
// deeply equal to the same run on a world never Shared, whose peers
// average and digest for themselves.
func TestMemoSoloRunAveragesOnce(t *testing.T) {
	h := fl.DefaultHyper(nn.ModelSimpleNN)
	h.LR, h.LocalEpochs = 0.3, 1
	cfg := Config{Peers: 20, ClientFraction: 0.45, Rounds: 3, Seed: 1, TrainPerPeer: 64, SelectionSize: 16,
		TestPerPeer: 40, Hyper: h, Backend: "poa", CommitLatency: true, Parallelism: 2}

	r, err := NewRoundEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := r.e.w.memo
	if m == nil || m.runs != 1 || r.e.w.initialKey == (fl.Key{}) {
		t.Fatal("a run that builds its own world keeps no one-run memo")
	}
	var asked atomic.Int64
	for _, p := range r.e.peers {
		average := p.agg.Average
		p.agg.Average = func(round int, key fl.Key, picked []*fl.Update) ([]float32, error) {
			asked.Add(1)
			return average(round, key, picked)
		}
	}
	got, err := func() (_ *Result, err error) {
		defer r.e.leave(&err)
		step := r.CommitStepMs()
		if err := r.RegisterAt(step); err != nil {
			return nil, err
		}
		for round := 1; round <= cfg.Rounds; round++ {
			asked.Store(0)
			if _, err := r.RunRoundAt(context.Background(), round, float64(2*round)*step, float64(2*round+1)*step); err != nil {
				return nil, err
			}
			// The round is not passed until the next one starts, so its
			// table holds every fill it made.
			merged := map[fl.Key]bool{}
			for _, s := range r.e.roundParticipants(round) {
				merged[r.e.peers[s].adoptedKey] = true
			}
			averaged, digested := 0, 0
			m.mu.Lock()
			for k := range m.rounds[round] {
				switch {
				case k.mean:
					averaged++
				case k == memoKey{weights: k.weights}: // recordTx's digest
					digested++
				}
			}
			m.mu.Unlock()
			t.Logf("round %d: %d participants asked for %d averages; %d averaged, %d digested, %d merge keys",
				round, len(r.e.roundParticipants(round)), asked.Load(), averaged, digested, len(merged))
			if averaged != len(merged) || digested != len(merged) || len(merged) != 1 {
				t.Errorf("round %d: %d averages and %d digests for %d merge keys, want one each for the round's one key",
					round, averaged, digested, len(merged))
			}
			if asked.Load() <= int64(averaged) {
				t.Errorf("round %d: %d averages asked for, %d made: the peers shared nothing", round, asked.Load(), averaged)
			}
		}
		return r.Finish(), nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !memoEmpty(m) {
		t.Error("the memo holds entries after the run landed")
	}

	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone := cfg
	alone.World = w
	want, err := Run(context.Background(), alone)
	if err != nil {
		t.Fatal(err)
	}
	if w.memo != nil {
		t.Fatal("a run on a handed world Shared it")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the solo run differs from the same run on a world never Shared")
	}
}
