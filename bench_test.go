// Benchmark harness: one benchmark per table and figure of the paper,
// plus the §II-A2 performance premises and the ablations called out in
// DESIGN.md §6.
//
// The benchmarks run scaled-down versions of each experiment (so the
// suite finishes in minutes on one core) and report the headline
// quantities as custom metrics; cmd/repro regenerates the full-scale
// rows.
package waitornot_test

import (
	"context"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
	"waitornot/internal/tensor"
	"waitornot/internal/testutil"
	"waitornot/internal/xrand"
)

// benchOpts is the scaled experiment every heavy benchmark uses.
func benchOpts(m waitornot.Model) waitornot.Options {
	return waitornot.Options{
		Model:           m,
		Clients:         3,
		Rounds:          3,
		Seed:            1,
		TrainPerClient:  200,
		SelectionSize:   80,
		TestPerClient:   100,
		PretrainSamples: 600, // keep the EffNet warm start cheap in benches
		PretrainEpochs:  2,
		LearningRate:    0.01, // hotter than full-scale calibration so the
		// tiny bench shards produce separable accuracies
	}
}

// BenchmarkTableI_Figure3_VanillaSimpleNN regenerates the Table I /
// Figure 3 data (SimpleNN): both aggregation arms of Vanilla FL.
func BenchmarkTableI_Figure3_VanillaSimpleNN(b *testing.B) {
	benchVanilla(b, waitornot.SimpleNN)
}

// BenchmarkTableI_Figure3_VanillaEffNet regenerates the Table I /
// Figure 3 data for the complex model.
func BenchmarkTableI_Figure3_VanillaEffNet(b *testing.B) {
	benchVanilla(b, waitornot.EffNetB0Sim)
}

func benchVanilla(b *testing.B, m waitornot.Model) {
	for i := 0; i < b.N; i++ {
		rep := testutil.Run(b, benchOpts(m), waitornot.WithKind(waitornot.KindVanilla)).Vanilla
		last := len(rep.Consider[0]) - 1
		b.ReportMetric(rep.Consider[0][last], "final-acc-consider")
		b.ReportMetric(rep.NotConsider[0][last], "final-acc-not-consider")
		if i == 0 {
			b.Logf("\n%s", rep.TableI(m.String()))
		}
	}
}

// BenchmarkTableII_ChainFLClientA regenerates client A's combination
// table (Table II) on the real chain.
func BenchmarkTableII_ChainFLClientA(b *testing.B) { benchChainTable(b, 0) }

// BenchmarkTableIII_ChainFLClientB regenerates Table III.
func BenchmarkTableIII_ChainFLClientB(b *testing.B) { benchChainTable(b, 1) }

// BenchmarkTableIV_ChainFLClientC regenerates Table IV.
func BenchmarkTableIV_ChainFLClientC(b *testing.B) { benchChainTable(b, 2) }

func benchChainTable(b *testing.B, peer int) {
	for i := 0; i < b.N; i++ {
		rep := testutil.Run(b, benchOpts(waitornot.SimpleNN)).Decentralized
		rounds := rep.ComboAccuracy[peer]
		lastRow := rounds[len(rounds)-1]
		// Row order: solo, pairs..., all. Report solo vs all.
		b.ReportMetric(lastRow[0], "final-acc-solo")
		b.ReportMetric(lastRow[len(lastRow)-1], "final-acc-all")
		if i == 0 {
			b.Logf("\n%s", rep.PeerTable(peer, "SimpleNN"))
		}
	}
}

// BenchmarkFigure4_ChainFLSeries regenerates the Figure 4 series for
// the complex model, where combination choice matters most.
func BenchmarkFigure4_ChainFLSeries(b *testing.B) {
	opts := benchOpts(waitornot.EffNetB0Sim)
	opts.Rounds = 2
	for i := 0; i < b.N; i++ {
		rep := testutil.Run(b, opts).Decentralized
		row := rep.ComboAccuracy[0][len(rep.ComboAccuracy[0])-1]
		b.ReportMetric(row[len(row)-1]-row[0], "acc-gap-all-vs-solo")
		if i == 0 {
			b.Logf("\n%s", rep.Figure4("EffNetB0Sim"))
		}
	}
}

// BenchmarkWaitPolicy_SpeedVsPrecision regenerates the headline
// trade-off: final accuracy and mean wait per wait policy, with a 3x
// straggler.
func BenchmarkWaitPolicy_SpeedVsPrecision(b *testing.B) {
	opts := benchOpts(waitornot.SimpleNN)
	opts.StragglerFactor = []float64{1, 1, 3}
	for i := 0; i < b.N; i++ {
		rep := testutil.Run(b, opts, waitornot.WithKind(waitornot.KindTradeoff), waitornot.WithPolicies(waitornot.DefaultPolicies(3)...)).Tradeoff
		sync := rep.Runs[0]
		async := rep.Runs[len(rep.Runs)-1]
		b.ReportMetric(sync.MeanWaitMs/async.MeanWaitMs, "speedup-first1-vs-waitall")
		b.ReportMetric(sync.FinalAccuracy-async.FinalAccuracy, "acc-cost-first1")
		if i == 0 {
			b.Logf("\n%s", rep.Table())
		}
	}
}

// BenchmarkThroughputVsParticipants regenerates the §II-A2 premise:
// throughput roughly halves when co-located peers double.
func BenchmarkThroughputVsParticipants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := waitornot.ThroughputVsPeers([]int{4, 8, 16, 32}, 1)
		b.ReportMetric(pts[0].CommittedPerSec/pts[1].CommittedPerSec, "halving-ratio-4to8")
		b.ReportMetric(pts[len(pts)-1].CommittedPerSec, "tx-per-sec-32peers")
		if i == 0 {
			for _, p := range pts {
				b.Logf("%-10s %8.1f tx/s  latency %9.1f ms", p.Label, p.CommittedPerSec, p.MeanLatencyMs)
			}
		}
	}
}

// BenchmarkBlockGasLimitVsThroughput regenerates the block-capacity
// premise (refs [11,12]): throughput vs block gas limit for
// model-sized transactions.
func BenchmarkBlockGasLimitVsThroughput(b *testing.B) {
	txGas := uint64(4_000_000) // ~a SimpleNN submission
	limits := []uint64{4_000_000, 16_000_000, 64_000_000, 256_000_000}
	for i := 0; i < b.N; i++ {
		pts := waitornot.ThroughputVsBlockGas(limits, txGas, 1)
		b.ReportMetric(pts[len(pts)-1].CommittedPerSec/pts[0].CommittedPerSec, "capacity-gain")
		if i == 0 {
			for _, p := range pts {
				b.Logf("%-16s %8.1f tx/s  latency %9.1f ms", p.Label, p.CommittedPerSec, p.MeanLatencyMs)
			}
		}
	}
}

// BenchmarkAsyncRoundLatencySim regenerates the virtual-clock round
// latency comparison (sync vs async aggregation, age-of-block) at 8
// peers with a 3x straggler.
func BenchmarkAsyncRoundLatencySim(b *testing.B) {
	policies := []waitornot.Policy{
		{Kind: waitornot.WaitAll},
		{Kind: waitornot.FirstK, K: 4},
		{Kind: waitornot.Timeout, TimeoutMs: 6000},
	}
	for i := 0; i < b.N; i++ {
		stats := waitornot.RoundLatencyByPolicy(8, policies, 1)
		b.ReportMetric(stats[0].MeanWaitMs/stats[1].MeanWaitMs, "speedup-first4")
		if i == 0 {
			for _, st := range stats {
				b.Logf("%-16s wait %8.1f ms  models %5.2f  age %8.1f ms",
					st.Policy, st.MeanWaitMs, st.MeanIncluded, st.MeanAgeMs)
			}
		}
	}
}

// BenchmarkGasPerModelSize measures the paper's gas-conversion premise
// directly: intrinsic transaction gas for each model's weight payload.
func BenchmarkGasPerModelSize(b *testing.B) {
	gs := chain.DefaultGasSchedule()
	rng := xrand.New(1)
	simple := nn.AppendWeights(nil, nn.NewSimpleNN(rng).WeightVector())
	eff := nn.AppendWeights(nil, nn.ModelEffNetSim.Build(rng).WeightVector())
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = gs.Intrinsic(simple) + gs.Intrinsic(eff)
	}
	_ = sink
	b.ReportMetric(float64(gs.Intrinsic(simple)), "gas-simplenn")
	b.ReportMetric(float64(gs.Intrinsic(eff)), "gas-effnetsim")
	b.ReportMetric(float64(len(simple)), "bytes-simplenn")
	b.ReportMetric(float64(len(eff)), "bytes-effnetsim")
}

// BenchmarkDualTaskInterference measures the paper's §V observation:
// proof-of-work hash throughput collapses when the same core also
// trains a model.
func BenchmarkDualTaskInterference(b *testing.B) {
	mineOnce := func() time.Duration {
		start := time.Now()
		h := chain.Header{Difficulty: 1 << 18, Time: uint64(start.UnixNano())}
		chain.Mine(&h)
		return time.Since(start)
	}
	var idleTotal, busyTotal time.Duration
	for i := 0; i < b.N; i++ {
		idleTotal += mineOnce()

		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			rng := xrand.New(uint64(i))
			m := nn.NewSimpleNN(rng)
			opt := nn.NewSGD(0.01, 0.9, 0)
			x := tensor.New(64, nn.ImageLen)
			x.Randomize(rng, 1)
			y := make([]int, 64)
			for j := range y {
				y[j] = rng.Intn(nn.NumClass)
			}
			for {
				select {
				case <-stop:
					return
				default:
					nn.TrainEpoch(m, opt, x, y, 32, rng)
				}
			}
		}()
		busyTotal += mineOnce()
		close(stop)
		<-done
	}
	if idleTotal > 0 {
		b.ReportMetric(float64(busyTotal)/float64(idleTotal), "slowdown-x")
	}
}

// BenchmarkAblationSelectionSetSize ablates the "consider" scorer's
// selection-set size (DESIGN.md §6): bigger sets pick better combos but
// cost linearly more evaluation time.
func BenchmarkAblationSelectionSetSize(b *testing.B) {
	for _, size := range []int{40, 120, 300} {
		b.Run("sel-"+itoa(size), func(b *testing.B) {
			opts := benchOpts(waitornot.SimpleNN)
			opts.SelectionSize = size
			for i := 0; i < b.N; i++ {
				rep := testutil.Run(b, opts).Decentralized
				last := rep.Rounds[0][len(rep.Rounds[0])-1]
				b.ReportMetric(last.ChosenAccuracy, "final-acc")
			}
		})
	}
}

// BenchmarkAblationFilterThreshold ablates the abnormal-model filter
// margin against a fully poisoned peer.
func BenchmarkAblationFilterThreshold(b *testing.B) {
	for _, margin := range []float64{0, 0.05, 0.15} {
		b.Run("margin-"+ftoa(margin), func(b *testing.B) {
			opts := benchOpts(waitornot.SimpleNN)
			opts.PoisonClient = 2
			opts.PoisonFraction = 1
			opts.FilterMaxBelowBest = margin
			for i := 0; i < b.N; i++ {
				rep := testutil.Run(b, opts).Decentralized
				last := rep.Rounds[0][len(rep.Rounds[0])-1]
				b.ReportMetric(last.ChosenAccuracy, "final-acc-healthy-peer")
				b.ReportMetric(float64(len(last.Rejected)), "rejected")
			}
		})
	}
}

// BenchmarkAblationPoWDifficulty measures sealing time across the
// difficulty ladder — the block-interval vs responsiveness trade-off
// behind the age-of-block discussion.
func BenchmarkAblationPoWDifficulty(b *testing.B) {
	for _, bits := range []uint{12, 16, 20} {
		b.Run("2e"+itoa(int(bits)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := chain.Header{Difficulty: 1 << bits, Number: uint64(i)}
				chain.Mine(&h)
			}
		})
	}
}

// BenchmarkFedAvgSimpleNN measures the aggregation step itself at the
// paper's model size.
func BenchmarkFedAvgSimpleNN(b *testing.B) {
	rng := xrand.New(1)
	ups := make([]*fl.Update, 3)
	for i := range ups {
		w := make([]float32, 61670)
		for j := range w {
			w[j] = float32(rng.NormFloat64())
		}
		ups[i] = &fl.Update{Client: fl.ClientName(i), Round: 1, Weights: w, NumSamples: 3000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fl.FedAvg(ups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelSubmissionTx measures the full submit-transaction path
// at SimpleNN size: encode weights, sign, verify.
func BenchmarkModelSubmissionTx(b *testing.B) {
	rng := xrand.New(1)
	w := nn.NewSimpleNN(rng).WeightVector()
	k := keys.GenerateDeterministic(1)
	to := keys.GenerateDeterministic(2).Address()
	gs := chain.DefaultGasSchedule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := nn.AppendWeights(nil, w)
		tx, err := chain.NewTx(k, uint64(i), to, 0, blob, gs, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.VerifySignature(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightCodec pins the weight codec's allocation contract at
// SimpleNN size: AppendWeights into a reused scratch buffer is
// zero-alloc per op (one warm-up growth aside), and HashWeights costs
// only the constant-size hasher state — never an O(weights) buffer.
func BenchmarkWeightCodec(b *testing.B) {
	rng := xrand.New(1)
	w := nn.NewSimpleNN(rng).WeightVector()
	b.Run("append", func(b *testing.B) {
		scratch := make([]byte, 0, nn.EncodedSize(len(w)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch = nn.AppendWeights(scratch[:0], w)
		}
		_ = scratch
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var sink [32]byte
		for i := 0; i < b.N; i++ {
			sink = nn.HashWeights(w)
		}
		_ = sink
	})
}

// BenchmarkLedgerHotPath pins the ledger hot path at model scale with
// allocations visible: 8 peers each submit a real aggregation-contract
// model payload (a SimpleNN-sized weight blob in contract.Submit call
// data), the round leader seals, and every peer reads the committed
// view back. The timer covers mempool admission, sealing, contract
// execution, and the state copies a commit makes — the path the
// verify-once signature verdict, memoized tx digests, and
// storage-value interning serve. Encoding and signing stay outside the
// timer (client cost; BenchmarkWeightCodec pins the encode path).
// allocs/op is part of the pin: losing the interned state copies shows
// up here as megabytes per op before it shows up as time.
func BenchmarkLedgerHotPath(b *testing.B) {
	for _, name := range []string{"poa", "pbft", "instant"} {
		b.Run(name, func(b *testing.B) { benchLedgerHotPath(b, name) })
	}
}

func benchLedgerHotPath(b *testing.B, name string) {
	const peers = 8
	ccfg := chain.DefaultConfig()
	ccfg.GenesisDifficulty = 64
	ccfg.MinDifficulty = 16
	ks := make([]*keys.Key, peers)
	alloc := make(map[keys.Address]uint64, peers)
	sealers := make([]keys.Address, peers)
	for i := range ks {
		ks[i] = keys.GenerateDeterministic(uint64(9100 + i))
		alloc[ks[i].Address()] = 1 << 62
		sealers[i] = ks[i].Address()
	}
	be, err := ledger.New(name, ledger.Config{
		Peers: peers, Chain: ccfg, Alloc: alloc, Sealers: sealers,
		Proc: contract.NewVM(ccfg.Gas),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	weights := make([][]float32, peers)
	for i := range weights {
		w := make([]float32, 61670) // SimpleNN parameter count
		for j := range w {
			w[j] = float32(rng.NormFloat64())
		}
		weights[i] = w
	}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txs := make([]*chain.Transaction, peers)
		for p, k := range ks {
			blob := nn.AppendWeights(scratch[:0], weights[p])
			scratch = blob[:0]
			payload := contract.SubmitCallData(uint64(i), 0, 3000, blob)
			tx, err := chain.NewTx(k, uint64(i), contract.AggregationAddress, 0, payload, ccfg.Gas, 10_000_000, 1)
			if err != nil {
				b.Fatal(err)
			}
			txs[p] = tx
		}
		b.StartTimer()
		for _, tx := range txs {
			if err := be.Submit(tx); err != nil {
				b.Fatal(err)
			}
		}
		c, err := be.Commit(i%peers, uint64(i+1)*1000)
		if err != nil {
			b.Fatal(err)
		}
		if c.Txs != peers {
			b.Fatalf("committed %d of %d txs", c.Txs, peers)
		}
		for p := 0; p < peers; p++ {
			if subs := contract.SubmissionsAt(be.StateView(p), uint64(i)); len(subs) != peers {
				b.Fatalf("peer %d sees %d of %d submissions", p, len(subs), peers)
			}
		}
	}
}

// benchParallelSpeedup times fn sequentially (Parallelism 1) and with
// the given worker count, reporting both and their ratio. The two runs
// produce bit-identical results (see determinism_test.go); only the
// wall clock differs.
func benchParallelSpeedup(b *testing.B, workers int, fn func(parallelism int)) {
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		seqStart := time.Now()
		fn(1)
		seq += time.Since(seqStart)
		parStart := time.Now()
		fn(workers)
		par += time.Since(parStart)
	}
	b.ReportMetric(seq.Seconds()/float64(b.N), "seq-sec/op")
	b.ReportMetric(par.Seconds()/float64(b.N), "par-sec/op")
	if par > 0 {
		b.ReportMetric(float64(seq)/float64(par), "speedup-x")
	}
}

// BenchmarkSubsampledFleet10k is the cross-device scaling acceptance
// as a recorded number: a registered fleet of 10,000 peers with K=32
// sampled per round (ClientFraction 0.0032) must complete a 2-round
// run in single-digit seconds, because setup and memory scale with
// the active cohort, not the fleet.
func BenchmarkSubsampledFleet10k(b *testing.B) {
	opts := benchOpts(waitornot.SimpleNN)
	opts.Clients = 10000
	opts.ClientFraction = 0.0032 // K = 32
	opts.Rounds = 2
	opts.TrainPerClient = 32 // one full minibatch per sampled peer
	opts.SelectionSize = 20
	opts.TestPerClient = 20
	opts.SkipComboTables = true
	opts.Backend = "instant"
	for i := 0; i < b.N; i++ {
		rep := testutil.Run(b, opts).Decentralized
		b.ReportMetric(float64(len(rep.PeerNames)), "peers-materialized")
		b.ReportMetric(float64(opts.Clients), "fleet-size")
	}
}

// BenchmarkParallelTradeoffSweep measures the per-policy loop of the
// trade-off study: three full experiments that are fully independent.
func BenchmarkParallelTradeoffSweep(b *testing.B) {
	opts := benchOpts(waitornot.SimpleNN)
	opts.StragglerFactor = []float64{1, 1, 3}
	benchParallelSpeedup(b, 3, func(parallelism int) {
		opts.Parallelism = parallelism
		testutil.Run(b, opts, waitornot.WithKind(waitornot.KindTradeoff), waitornot.WithPolicies(waitornot.DefaultPolicies(3)...))
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func ftoa(v float64) string {
	return itoa(int(v*100+0.5)) + "pct"
}

// BenchmarkAsyncVsSync races the two schedules on the same workload:
// the barriered decentralized round loop vs the un-barriered
// virtual-clock free run (same peers, rounds, policy, and commit
// modeling). speedup-x is the REAL wall-clock ratio (sync cost /
// async cost of running the simulation itself); the modeled time the
// two schedules consume is reported separately as sync-virtual-ms and
// async-virtual-ms — compare those two to see what the free run buys
// on the virtual axis.
func BenchmarkAsyncVsSync(b *testing.B) {
	opts := benchOpts(waitornot.SimpleNN)
	opts.SkipComboTables = true
	opts.StragglerFactor = []float64{1, 1, 3}
	opts.Policy = waitornot.Policy{Kind: waitornot.FirstK, K: 2}
	opts.CommitLatency = true

	var syncWall, asyncWall time.Duration
	var syncVirtual, asyncVirtual float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep := testutil.Run(b, opts).Decentralized
		syncWall += time.Since(start)
		// The barriered run's virtual cost: every round lasts until its
		// slowest peer fires.
		var cum float64
		for ri := range rep.Rounds[0] {
			var maxWait float64
			for p := range rep.Rounds {
				if w := rep.Rounds[p][ri].WaitMs; w > maxWait {
					maxWait = w
				}
			}
			cum += maxWait
		}
		syncVirtual += cum

		start = time.Now()
		res, err := waitornot.New(opts, waitornot.WithKind(waitornot.KindAsync)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		asyncWall += time.Since(start)
		asyncVirtual += res.Async.HorizonMs
	}
	b.ReportMetric(syncWall.Seconds()/float64(b.N), "seq-sec/op")
	b.ReportMetric(asyncWall.Seconds()/float64(b.N), "par-sec/op")
	b.ReportMetric(syncVirtual/float64(b.N), "sync-virtual-ms")
	b.ReportMetric(asyncVirtual/float64(b.N), "async-virtual-ms")
	if asyncWall > 0 {
		b.ReportMetric(float64(syncWall)/float64(asyncWall), "speedup-x")
	}
}

// BenchmarkShardedVsFlat races the hierarchy against the flat
// decentralized loop on the same 8-peer workload: 4 shards of 2 peers
// each, merging every round, vs one 8-peer aggregation ring.
// flat-sec/op vs sharded-sec/op is the REAL wall-clock comparison
// (smaller shards mean smaller combination spaces and ledgers);
// sharded-virtual-ms is the hierarchy's modeled completion time.
func BenchmarkShardedVsFlat(b *testing.B) {
	opts := benchOpts(waitornot.SimpleNN)
	opts.Clients = 8
	opts.SkipComboTables = true
	opts.StragglerFactor = []float64{1, 1, 1, 1, 1, 1, 1, 3}
	opts.CommitLatency = true

	var flatWall, shardWall time.Duration
	var horizon, finalAcc float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		testutil.Run(b, opts)
		flatWall += time.Since(start)

		sharded := opts
		sharded.Shards = 4
		start = time.Now()
		rep := testutil.Run(b, sharded, waitornot.WithKind(waitornot.KindSharded)).Sharded
		shardWall += time.Since(start)
		horizon += rep.HorizonMs
		finalAcc += rep.FinalAccuracy
	}
	b.ReportMetric(flatWall.Seconds()/float64(b.N), "flat-sec/op")
	b.ReportMetric(shardWall.Seconds()/float64(b.N), "sharded-sec/op")
	b.ReportMetric(horizon/float64(b.N), "sharded-virtual-ms")
	b.ReportMetric(finalAcc/float64(b.N), "sharded-final-acc")
	if shardWall > 0 {
		b.ReportMetric(float64(flatWall)/float64(shardWall), "speedup-x")
	}
}
