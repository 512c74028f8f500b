package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"waitornot"
)

// qualityReps is how many repetitions the deterministic outputs
// (final_acc, mean_wait_ms, result_digest) are taken over. It is fixed,
// and every run makes at least this many, so the same seed gives the
// same values however many repetitions the clock allows.
const qualityReps = 8

// rep is one repetition: a full set-up, run and report of the workload.
type rep struct {
	traced bool
	setupS float64
	runS   float64
	// allocMB is Go heap allocated during the repetition.
	allocMB float64
	// acc, waitMs and included are the report's headline reduction.
	acc, waitMs, included float64
	digest                [32]byte
	// reportMs is the time spent rendering the report.
	reportMs float64
	// fails lists the correctness checks the repetition did not pass.
	fails []string
}

// repSeed spreads repetitions of one --seed over distinct experiment
// seeds, so every repetition signs fresh transactions and the
// process-wide verify and public-key caches start cold for it, as they
// do in a cmd/repro invocation. The stride leaves room for the sweep's
// consecutive seeds.
func repSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i)*16 + 1 }

// runRep runs one repetition and checks its outputs.
func runRep(w workload, seed uint64, tr *eventTrace) rep {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	r := rep{traced: tr != nil}
	start := time.Now()
	obs := &observer{start: start, trace: tr}
	var setup time.Duration
	var err error
	if w.sweepSeeds > 0 {
		setup, err = sweepCellSetup(w, seed, r.traced)
		if err == nil {
			err = r.sweep(w, seed, obs)
		}
	} else {
		err = r.single(w, seed, obs)
		setup = obs.first.Sub(start)
	}
	r.runS = time.Since(start).Seconds()
	r.setupS = setup.Seconds()
	runtime.ReadMemStats(&m1)
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if tr != nil {
		tr.endRun(w.base.Kind == waitornot.KindAsync, w.ops())
	}

	if err != nil {
		r.fails = append(r.fails, "run: "+err.Error())
		return r
	}
	if r.acc < w.accFloor {
		r.fails = append(r.fails, fmt.Sprintf("final accuracy %.4f below floor %.2f", r.acc, w.accFloor))
	}
	if w.waitAll && r.included != float64(w.k) {
		r.fails = append(r.fails, fmt.Sprintf("mean models %.3f under wait-all, want %d", r.included, w.k))
	}
	if r.setupS <= 0 || r.setupS >= r.runS {
		r.fails = append(r.fails, fmt.Sprintf("set-up %.4fs outside run %.4fs", r.setupS, r.runS))
	}
	return r
}

// single runs a one-cell workload through Experiment.Run and renders
// its report.
func (r *rep) single(w workload, seed uint64, obs *observer) error {
	res, err := w.experiment(seed, r.traced, obs).Run(context.Background())
	if err != nil {
		return err
	}
	var (
		chain  waitornot.ChainSummary
		rounds int
	)
	rendering := time.Now()
	switch {
	case res.Decentralized != nil:
		d := res.Decentralized
		for p := range d.PeerNames {
			io.WriteString(io.Discard, d.PeerTable(p, "SimpleNN"))
		}
		io.WriteString(io.Discard, d.Figure4("SimpleNN"))
		r.reportMs = ms(time.Since(rendering))
		r.acc, r.waitMs, r.included = d.Headline()
		r.digest = digest(d)
		chain, rounds = d.Chain, obs.roundEnds
	case res.Async != nil:
		a := res.Async
		io.WriteString(io.Discard, a.Table())
		io.WriteString(io.Discard, a.CSV())
		r.reportMs = ms(time.Since(rendering))
		r.acc, r.waitMs, r.included = a.Headline()
		r.digest = digest(a)
		chain, rounds = a.Chain, w.rounds()
		for _, pr := range a.Rounds {
			if len(pr) != w.base.Options.Rounds {
				r.fails = append(r.fails, fmt.Sprintf("a peer aggregated %d times, want %d", len(pr), w.base.Options.Rounds))
			}
		}
	default:
		return fmt.Errorf("no report for kind %v", res.Kind)
	}
	if rounds != w.rounds() {
		r.fails = append(r.fails, fmt.Sprintf("%d rounds ended, want %d", rounds, w.rounds()))
	}
	if obs.aggregations != w.ops() {
		r.fails = append(r.fails, fmt.Sprintf("%d aggregations, want %d", obs.aggregations, w.ops()))
	}
	if want := obs.regTxs + 2*w.ops(); chain.Txs != want {
		r.fails = append(r.fails, fmt.Sprintf("%d txs committed, want %d registrations + 2 x %d ops", chain.Txs, obs.regTxs, w.ops()))
	}
	return nil
}

// sweep runs a multi-cell workload through RunSweep and renders its
// report.
func (r *rep) sweep(w workload, seed uint64, obs *observer) error {
	sr, err := w.experiment(seed, r.traced, obs).RunSweep(context.Background())
	if err != nil {
		return err
	}
	rendering := time.Now()
	io.WriteString(io.Discard, sr.Table())
	io.WriteString(io.Discard, sr.CSV())
	if _, err := sr.JSON(); err != nil {
		return err
	}
	r.reportMs = ms(time.Since(rendering))
	if obs.cells != w.cells() || len(sr.Runs) != w.cells() {
		r.fails = append(r.fails, fmt.Sprintf("%d cells reported, %d returned, want %d", obs.cells, len(sr.Runs), w.cells()))
	}
	for _, run := range sr.Runs {
		r.acc += run.FinalAccuracy / float64(len(sr.Runs))
		r.waitMs += run.MeanWaitMs / float64(len(sr.Runs))
		// pbft verifies models at the ledger and may exclude one, so
		// its wait-all cells can include fewer than k by design.
		if run.Policy == "wait-all" && !strings.HasSuffix(run.Backend, "pbft") && run.MeanIncluded != float64(w.k) {
			r.fails = append(r.fails, fmt.Sprintf("wait-all cell on %s included %.3f models, want %d", run.Backend, run.MeanIncluded, w.k))
		}
	}
	r.digest = digest(sr)
	return nil
}

// sweepCellSetup measures one sweep cell's set-up. Sweep cells emit no
// per-round events, so a probe cell of the same configuration runs
// through Experiment.Run and is cancelled at its first event, the
// registration block. That is the interval setup_s covers on every
// other workload.
func sweepCellSetup(w workload, seed uint64, traced bool) (time.Duration, error) {
	cell := w
	cell.sweepSeeds = 0
	cell.base.Kind = waitornot.KindDecentralized
	cell.base.Options.Backend = w.base.Backends[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	obs := &observer{start: start, onFirst: cancel}
	_, err := cell.experiment(seed, traced, obs).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("set-up probe cell: %v", err)
	}
	return obs.first.Sub(start), nil
}

// result is what one run of one workload reports: the driver's last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload measures one workload for about the given time and
// returns the end-to-end metrics (trace off) or the per-layer metrics
// (trace on), every failed check for the log, and the result digest.
func runWorkload(w workload, seed uint64, seconds float64, traced bool) (result, []string, string) {
	runtime.GOMAXPROCS(procs)
	if traced {
		return traceLayers(w, seed, seconds)
	}
	return measureEndToEnd(w, seed, seconds)
}

// tally counts attempted and failed ops: a repetition that fails any
// check fails all its ops.
func tally(w workload, reps []rep) (result, []string) {
	res := result{Metrics: map[string]metric{}}
	var fails []string
	for i, r := range reps {
		res.Attempted += w.ops()
		if len(r.fails) > 0 {
			res.Failed += w.ops()
		}
		for _, f := range r.fails {
			fails = append(fails, fmt.Sprintf("rep %d: %s", i, f))
		}
	}
	return res, fails
}

// measureEndToEnd repeats the workload untraced until the time is up
// and reports the fastest repetition. On a shared box interference only
// ever adds time, in bursts that slow single repetitions by 10-40%; the
// fastest of a dozen is the one least disturbed, and it repeats between
// runs about twice as closely as their median does (see README.md).
func measureEndToEnd(w workload, seed uint64, seconds float64) (result, []string, string) {
	start := time.Now()
	var reps []rep
	for i := 0; i < qualityReps || time.Since(start).Seconds() < seconds; i++ {
		reps = append(reps, runRep(w, repSeed(seed, i), nil))
	}
	res, fails := tally(w, reps)
	res.Correct = res.Failed == 0

	var setup, run, rate, alloc []float64
	for _, r := range reps {
		setup = append(setup, r.setupS)
		run = append(run, r.runS)
		rate = append(rate, float64(w.ops())/(r.runS-r.setupS))
		alloc = append(alloc, r.allocMB/float64(w.ops()))
	}
	h := sha256.New()
	var accs, waits []float64
	for _, r := range reps[:qualityReps] {
		h.Write(r.digest[:])
		accs = append(accs, r.acc)
		waits = append(waits, r.waitMs)
	}
	res.Metrics["setup_s"] = metric{slices.Min(setup), "s"}
	res.Metrics["run_s"] = metric{slices.Min(run), "s"}
	res.Metrics["peer_rounds_per_s"] = metric{slices.Max(rate), "ops/s"}
	res.Metrics["alloc_mb_per_peer_round"] = metric{median(alloc), "MB"}
	res.Metrics["final_acc"] = metric{mean(accs), "fraction"}
	res.Metrics["mean_wait_ms"] = metric{mean(waits), "virtual_ms"}
	return res, fails, fmt.Sprintf("%x", h.Sum(nil))
}

// traceLayers runs the probes, then alternates traced and untraced
// repetitions until the time is up, and reports the per-layer metrics.
// The probes run first so that they fall inside the measured time.
func traceLayers(w workload, seed uint64, seconds float64) (result, []string, string) {
	start := time.Now()
	registerTracedBackends()
	probed := probes(w)

	// Repetition 0 is traced and repetition 1 repeats its seed untraced:
	// the two digests must match. From there on seeds are fresh. Four
	// repetitions leave one untraced one with cold caches to measure the
	// overhead against.
	tr := &eventTrace{}
	wall0, cpu0 := time.Now(), cpuSeconds()
	var reps []rep
	for i := 0; i < 4 || time.Since(start).Seconds() < seconds; i++ {
		si, use := i, tr
		if i%2 == 1 {
			use = nil
		}
		if i == 1 {
			si = 0
		}
		reps = append(reps, runRep(w, repSeed(seed, si), use))
	}
	wall := time.Since(wall0).Seconds()
	cpu := cpuSeconds() - cpu0

	res, fails := tally(w, reps)
	if reps[0].digest != reps[1].digest {
		res.Failed += w.ops()
		fails = append(fails, fmt.Sprintf("traced digest %x differs from untraced %x", reps[0].digest[:6], reps[1].digest[:6]))
	}
	res.Correct = res.Failed == 0

	layerMetrics(res.Metrics, w, tr, reps)
	res.Metrics["par.cpu_s"] = metric{cpu, "s"}
	res.Metrics["par.cpu_util"] = metric{cpu / (wall * float64(procs)), "fraction"}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["runtime.gc_count"] = metric{float64(ms.NumGC), "count"}
	res.Metrics["runtime.gc_pause_ms"] = metric{float64(ms.PauseTotalNs) / 1e6, "ms"}
	res.Metrics["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	for name, v := range probed {
		res.Metrics[name] = v
	}
	return res, fails, fmt.Sprintf("%x", reps[0].digest)
}

// layerMetrics fills the metrics that come from the event trace and
// the backend wrappers, pooled over the traced repetitions.
func layerMetrics(out map[string]metric, w workload, tr *eventTrace, reps []rep) {
	var tracedRun, plainRun []float64
	for i, r := range reps {
		switch {
		case r.traced:
			tracedRun = append(tracedRun, r.runS)
		case i != 1: // repetition 1 reran a seed: its caches were warm
			plainRun = append(plainRun, r.runS)
		}
	}
	// Fastest against fastest, the estimator the end-to-end times use:
	// medians of half a dozen repetitions differ by more than any
	// overhead the trace could have.
	fastest := slices.Min(tracedRun)
	out["trace.overhead_pct"] = metric{(fastest/slices.Min(plainRun) - 1) * 100, "%"}
	var report []float64
	for _, r := range reps {
		report = append(report, r.reportMs)
	}
	out["sweep.report_ms"] = metric{median(report), "ms"}

	msOf := func(v float64) metric { return metric{v, "ms"} }
	out["bfl.setup_ms"] = msOf(median(tr.setupMs))
	out["bfl.round_ms_p50"] = msOf(percentile(tr.roundMs, 50))
	out["bfl.round_ms_p90"] = msOf(percentile(tr.roundMs, 90))
	for i, name := range stageNames {
		out["bfl."+name] = msOf(tr.stage(i))
	}
	out["bfl.async_agg_ms_p50"] = msOf(percentile(tr.asyncGaps, 50))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	trained := float64(tr.trained)
	out["bfl.included_ratio"] = metric{ratio(float64(tr.included), trained*float64(w.k)), "fraction"}
	out["bfl.virtual_compute_ms"] = metric{ratio(tr.simMs, trained), "virtual_ms"}
	out["core.virtual_wait_ms"] = metric{ratio(tr.waitMs, trained), "virtual_ms"}

	rounds := float64(len(tracedRun) * w.rounds())
	var all [numCounters]float64
	for _, name := range tracedBackends {
		c := traceStats[name].snapshot()
		for i := range all {
			all[i] += c[i]
		}
		out["ledger."+name+".submit_us_per_tx"] = metric{ratio(c[cSubmitNs]/1e3, c[cSubmits]), "us"}
		out["ledger."+name+".commit_ms_per_block"] = metric{ratio(c[cCommitNs]/1e6, c[cCommits]), "ms"}
	}
	out["ledger.submit_ms_per_round"] = msOf(ratio(all[cSubmitNs]/1e6, rounds))
	out["ledger.commit_ms_per_round"] = msOf(ratio(all[cCommitNs]/1e6, rounds))
	out["ledger.read_ms_per_round"] = msOf(ratio(all[cReadNs]/1e6, rounds))
	out["ledger.submit_us_per_tx"] = metric{ratio(all[cSubmitNs]/1e3, all[cSubmits]), "us"}
	out["ledger.txs_per_round"] = metric{ratio(all[cTxs], rounds), "count"}
	out["ledger.bytes_per_round"] = metric{ratio(all[cBytes], rounds), "bytes"}
	out["ledger.gas_per_round"] = metric{ratio(all[cGas], rounds), "gas"}
	out["ledger.rejected_ratio"] = metric{ratio(all[cRejected], all[cSubmits]), "fraction"}
	out["ledger.virtual_commit_ms"] = metric{ratio(all[cLatencyUs]/1e3, all[cCommits]), "virtual_ms"}

	cellsPerS := 0.0
	if w.sweepSeeds > 0 {
		cellsPerS = float64(w.cells()) / fastest
	}
	out["sweep.cells_per_s"] = metric{cellsPerS, "1/s"}
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the high-water resident set from /proc, falling back
// to rusage where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if _, err := fmt.Sscan(rest, &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}
