package main

import (
	"fmt"
	"time"

	"waitornot"
	"waitornot/internal/chain"
	"waitornot/internal/contract"
	"waitornot/internal/core"
	"waitornot/internal/dataset"
	"waitornot/internal/fl"
	"waitornot/internal/keys"
	"waitornot/internal/ledger"
	"waitornot/internal/nn"
	"waitornot/internal/par"
	"waitornot/internal/tensor"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

const (
	// probeCalls is how many direct calls a probe takes its median over.
	probeCalls = 20
	// probeSamples caps the data a training or generation probe touches,
	// so the probes stay within a few seconds on every workload. Ratios
	// between commits are what the probes are for, not absolute cost at
	// the workload's size.
	probeSamples = 256
)

// timeCalls returns the median wall time of probeCalls calls of fn.
func timeCalls(fn func(i int)) time.Duration {
	xs := make([]float64, probeCalls)
	for i := range xs {
		start := time.Now()
		fn(i)
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probes times each layer's exported entry points directly, on inputs
// shaped like the workload's: SimpleNN's 61,670 weights, the workload's
// k, epochs, selection and test set sizes.
func probes(w workload) map[string]metric {
	out := map[string]metric{}
	us := func(name string, d time.Duration) {
		out[name] = metric{float64(d) / float64(time.Microsecond), "us"}
	}
	msec := func(name string, d time.Duration) { out[name] = metric{ms(d), "ms"} }

	o := w.base.Options
	orDefault := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	trainN := min(orDefault(o.TrainPerClient, 3000), probeSamples)
	selN := orDefault(o.SelectionSize, 300)
	testN := orDefault(o.TestPerClient, 800)
	hyper := fl.DefaultHyper(nn.ModelSimpleNN)
	if o.LearningRate != 0 {
		hyper.LR = o.LearningRate
	}
	if o.LocalEpochs != 0 {
		hyper.LocalEpochs = o.LocalEpochs
	}

	root := xrand.New(7)
	data := dataset.DefaultConfig()
	train := dataset.Generate(data, trainN, root.Derive("train"))
	sel := dataset.Generate(data, selN, root.Derive("sel"))
	test := dataset.Generate(data, testN, root.Derive("test"))

	// dataset / keys / vclock / par.
	msec("dataset.generate_ms", timeCalls(func(i int) {
		sink = dataset.Generate(data, trainN, root.Derive(fmt.Sprint("gen", i)))
	}))
	us("keys.generate_us", timeCalls(func(i int) { sink = keys.GenerateDeterministic(uint64(1000 + i)) }))
	const clockEvents = 1000
	perEvent := timeCalls(func(int) {
		c := vclock.New()
		for e := 0; e < clockEvents; e++ {
			c.Schedule(float64(e%97), e%7, func() error { return nil })
		}
		if err := c.Run(); err != nil {
			panic(err)
		}
	}) / clockEvents
	out["vclock.event_ns"] = metric{float64(perEvent), "ns"}
	const poolItems = 64
	us("par.foreach_overhead_us", timeCalls(func(int) {
		if err := par.ForEach(procs, poolItems, func(int) error { return nil }); err != nil {
			panic(err)
		}
	}))

	// nn / tensor.
	model := nn.NewSimpleNN(root.Derive("model"))
	opt := nn.NewSGD(hyper.LR, hyper.Momentum, hyper.WeightDecay)
	var scratch nn.EpochScratch
	msec("nn.train_epoch_ms", timeCalls(func(i int) {
		nn.TrainEpochScratch(model, opt, train.X, train.Y, hyper.BatchSize, root.Derive(fmt.Sprint("epoch", i)), &scratch)
	}))
	msec("nn.evaluate_ms", timeCalls(func(int) { sink = nn.Evaluate(model, test.X, test.Y, 64) }))
	weights := model.WeightVector()
	var blob []byte
	us("nn.append_weights_us", timeCalls(func(int) { blob = nn.AppendWeights(blob[:0], weights) }))
	us("nn.decode_weights_us", timeCalls(func(int) {
		dec, err := nn.DecodeWeights(blob)
		if err != nil {
			panic(err)
		}
		sink = dec
	}))
	us("nn.hash_weights_us", timeCalls(func(int) { sink = nn.HashWeights(weights) }))
	// SimpleNN's first layer on one minibatch: (32 x 3072) * (3072 x 20).
	a, b, c := tensor.New(hyper.BatchSize, nn.ImageLen), tensor.New(nn.ImageLen, 20), tensor.New(hyper.BatchSize, 20)
	a.Randomize(root.Derive("a"), 1)
	b.Randomize(root.Derive("b"), 1)
	mm := timeCalls(func(int) { tensor.MatMul(a, b, c) })
	flop := 2 * float64(a.Rows) * float64(a.Cols) * float64(b.Cols)
	out["tensor.matmul_gflops"] = metric{flop / float64(mm), "gflop/s"} // flop per ns

	// fl / core: k updates of slightly different weights.
	client := fl.NewClient("A", model, train, sel, test, hyper, root.Derive("client"))
	msec("fl.local_train_ms", timeCalls(func(i int) { sink = client.LocalTrain(i + 1) }))
	updates := make([]*fl.Update, w.k)
	for i := range updates {
		wv := append([]float32(nil), weights...)
		wv[i] += 0.01
		updates[i] = &fl.Update{Client: fl.ClientName(i), Round: 1, Weights: wv, NumSamples: trainN}
	}
	msec("fl.fedavg_ms", timeCalls(func(int) {
		avg, err := fl.FedAvg(updates)
		if err != nil {
			panic(err)
		}
		sink = avg
	}))
	agg := core.NewAggregator("A", core.WaitAll{}, core.Filter{}, client.SelectionEvaluator(), root.Derive("ties"))
	if o.ClientFraction > 0 {
		agg.MaxComboPeers = 8 // what the subsampled engine sets
	}
	msec("core.decide_ms", timeCalls(func(int) {
		d, err := agg.Decide(1, updates, 0, w.k)
		if err != nil {
			panic(err)
		}
		sink = d
	}))
	filter := core.Filter{MaxBelowBest: 0.15}
	msec("core.filter_ms", timeCalls(func(int) { sink = filter.Apply("A", updates, client.SelectionEvaluator()) }))

	// chain / contract: a signed SimpleNN submit transaction, and a
	// contract state holding one round of k submissions.
	gas := chain.DefaultGasSchedule()
	key := keys.GenerateDeterministic(42)
	var payload []byte
	us("contract.submit_calldata_us", timeCalls(func(int) {
		payload = contract.SubmitCallData(1, uint64(waitornot.SimpleNN), uint64(trainN), blob)
	}))
	us("chain.intrinsic_gas_us", timeCalls(func(int) { sink = gas.Intrinsic(payload) }))
	txs := make([]*chain.Transaction, probeCalls)
	us("chain.sign_us", timeCalls(func(i int) {
		tx, err := chain.NewTx(key, uint64(i), contract.AggregationAddress, 0, payload, gas, 10_000_000, 1)
		if err != nil {
			panic(err)
		}
		txs[i] = tx
	}))
	verify := func(i int) {
		if err := txs[i].VerifySignature(); err != nil {
			panic(err)
		}
	}
	us("chain.verify_cold_us", timeCalls(verify))
	us("chain.verify_cached_us", timeCalls(verify))

	state := submittedState(w.k, payload, gas)
	us("chain.state_copy_us", timeCalls(func(int) { sink = state.Copy() }))
	us("contract.submissions_at_us", timeCalls(func(int) {
		subs := contract.SubmissionsAt(state, 1)
		if len(subs) != w.k {
			panic(fmt.Sprintf("probe state holds %d submissions, want %d", len(subs), w.k))
		}
		sink = subs
	}))
	return out
}

// probeLedger returns a ledger config for k funded peers running the
// contract VM, and the peers' keys.
func probeLedger(k int, gas chain.GasSchedule) (ledger.Config, []*keys.Key) {
	cfg := ledger.Config{
		Peers:   k,
		Chain:   chain.DefaultConfig(),
		Alloc:   map[keys.Address]uint64{},
		Proc:    contract.NewVM(gas),
		Sealers: make([]keys.Address, k),
	}
	peerKeys := make([]*keys.Key, k)
	for i := range peerKeys {
		peerKeys[i] = keys.GenerateDeterministic(uint64(500 + i))
		cfg.Alloc[peerKeys[i].Address()] = 1 << 62
		cfg.Sealers[i] = peerKeys[i].Address()
	}
	return cfg, peerKeys
}

// submittedState commits one submit transaction from each of k peers
// through the instant backend and returns the resulting contract state.
func submittedState(k int, payload []byte, gas chain.GasSchedule) *chain.State {
	cfg, peerKeys := probeLedger(k, gas)
	be, err := ledger.New("instant", cfg)
	if err != nil {
		panic(err)
	}
	for _, pk := range peerKeys {
		tx, err := chain.NewTx(pk, 0, contract.AggregationAddress, 0, payload, gas, 10_000_000, 1)
		if err != nil {
			panic(err)
		}
		if err := be.Submit(tx); err != nil {
			panic(err)
		}
	}
	if _, err := be.Commit(0, 1); err != nil {
		panic(err)
	}
	return be.StateView(0)
}
