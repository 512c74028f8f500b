package main

import (
	"context"
	"math"
	"regexp"
	"sort"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/chain"
	"waitornot/internal/ledger"
)

func TestPercentileMedianMean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"median odd", median(xs), 3},
		{"median even", median([]float64{4, 1, 3, 2}), 2.5},
		{"median empty", median(nil), 0},
		{"p0", percentile(xs, 0), 1},
		{"p100", percentile(xs, 100), 5},
		{"p90", percentile(xs, 90), 4.6},
		{"mean", mean(xs), 3},
		{"mean empty", mean(nil), 0},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// gives, since that is what the driver applies.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(ten), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	// quantiles([2, 4, 4, 5], n=4) = [2.5, 4.0, 4.75]; median 4.
	if got, want := spread([]float64{4, 2, 5, 4}), 2.25/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if spread([]float64{3}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values must have no spread")
	}
}

func TestDigest(t *testing.T) {
	type report struct {
		Name   string
		Acc    []float64
		Rounds [][]int
		Txs    uint64
	}
	base := report{"pow", []float64{0.5, 0.25}, [][]int{{1}, {2, 3}}, 7}
	same := base
	same.Name = "traced-pow"
	if digest(base) != digest(same) {
		t.Error("digest depends on a string field")
	}
	if digest(base) != digest(&base) {
		t.Error("digest of a pointer differs from its value")
	}
	for name, other := range map[string]report{
		"float": {"pow", []float64{0.5, 0.26}, [][]int{{1}, {2, 3}}, 7},
		"uint":  {"pow", []float64{0.5, 0.25}, [][]int{{1}, {2, 3}}, 8},
		"shape": {"pow", []float64{0.5, 0.25}, [][]int{{1, 2}, {3}}, 7},
	} {
		if digest(base) == digest(other) {
			t.Errorf("digest missed a changed %s", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "run_s", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "rate", Better: "higher", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9}
	noisy := []float64{8, 10, 12.5}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{10.5, 10.4, 10.6}, "same"},
		{"slower beyond bound", lower, steady, []float64{11.2, 11.3, 11.1}, "worse"},
		{"rate beyond bound", higher, steady, []float64{8.9, 8.8, 8.95}, "worse"},
		{"noisy and overlapping", lower, noisy, []float64{9, 10, 12}, "unresolved"},
		{"noisy but every run better", lower, noisy, []float64{5, 6, 7.9}, "same"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// shrink sizes a workload for a sub-second smoke run: two rounds, a
// handful of samples, one sweep policy. Every code path of the full size
// still runs. The learning rate goes back to the calibrated default:
// on an 8-sample verification set a hot rate lets pbft reject every
// submission of a round, which the runner reports as an error.
func shrink(w workload) workload {
	o := &w.base.Options
	o.Rounds = 2
	o.TrainPerClient, o.SelectionSize, o.TestPerClient, o.LocalEpochs = 32, 8, 16, 1
	o.LearningRate = 0
	if o.ClientFraction > 0 {
		o.Clients, o.ClientFraction, w.k = 10, 0.3, 3
	}
	if w.sweepSeeds > 0 {
		w.base.Policies = w.base.Policies[:1]
	}
	w.accFloor = 0
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every workload runs end to end at smoke size, untraced and traced:
// no check fails (the traced digest equals the untraced one, among
// others), and the metrics emitted are exactly the ones BENCHMARK.json
// names, with their units.
func TestWorkloadsEmitWhatTheSpecNames(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, harnessWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads() {
		harnessWorkloads = append(harnessWorkloads, w.name)
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !equal(specWorkloads, harnessWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", specWorkloads, harnessWorkloads)
	}

	for _, w := range workloads() {
		w := shrink(w)
		for _, mode := range []struct {
			traced bool
			want   []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			start := time.Now()
			res, fails, _ := runWorkload(w, 1, 0, mode.traced)
			t.Logf("%s traced=%v: %d ops in %.2fs", w.name, mode.traced, res.Attempted, time.Since(start).Seconds())
			for _, f := range fails {
				t.Errorf("%s traced=%v: %s", w.name, mode.traced, f)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, mode.traced, res.Correct, res.Attempted, res.Failed)
			}
			if got, want := names(res.Metrics), specNames(mode.want); !equal(got, want) {
				t.Errorf("%s traced=%v emits\n%v\nBENCHMARK.json names\n%v", w.name, mode.traced, got, want)
			}
			for _, m := range mode.want {
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
				}
				got := res.Metrics[m.Name]
				if got.Unit != m.Unit {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s %s = %v", w.name, m.Name, got.Value)
				}
				if !mode.traced && got.Value <= 0 {
					t.Errorf("%s %s = %v, end-to-end metrics are never 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// The wrapper must be invisible: same numbers as the bare backend, the
// Chainer capability kept exactly where the bare backend has it, and
// its own name reported so ledger.New does not wrap it again.
func TestTracedBackendIsTransparent(t *testing.T) {
	registerTracedBackends()
	tiny := waitornot.Options{Rounds: 2, TrainPerClient: 32, SelectionSize: 8, TestPerClient: 16, LocalEpochs: 1, Parallelism: 2}
	for _, name := range tracedBackends {
		cfg, _ := probeLedger(3, chain.DefaultGasSchedule())
		bare, err := ledger.New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := ledger.New(tracedPrefix+name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped.Name() != tracedPrefix+name {
			t.Errorf("%s: wrapper reports name %q", name, wrapped.Name())
		}
		_, bareChain := bare.(ledger.Chainer)
		wc, wrappedChain := wrapped.(ledger.Chainer)
		if bareChain != wrappedChain {
			t.Errorf("%s: Chainer %v on the bare backend, %v through the wrapper", name, bareChain, wrappedChain)
		}
		if wrappedChain && wc.Chain(0) == nil {
			t.Errorf("%s: wrapper's Chain(0) is nil", name)
		}

		var digests [2][32]byte
		before := traceStats[name][cCommits].Load()
		for i, backend := range []string{name, tracedPrefix + name} {
			res, err := waitornot.New(tiny, waitornot.WithBackend(backend)).Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			digests[i] = digest(res.Decentralized)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: report differs through the wrapper", name)
		}
		// Registration plus a submission and a decision block per round.
		if got := traceStats[name][cCommits].Load() - before; got != 5 {
			t.Errorf("%s: wrapper saw %d commits, want 5", name, got)
		}
	}
}

// The trade-off runner drives one backend per policy arm concurrently,
// all feeding the same counters. Run with -race this is the wrapper's
// concurrency check; without it, it still checks that nothing is lost.
func TestTracedBackendsUnderParallelTradeoff(t *testing.T) {
	registerTracedBackends()
	var want [4]int64
	for i, name := range tracedBackends {
		want[i] = traceStats[name][cCommits].Load() + 3*5 // 3 policies x 5 blocks
	}
	backends := make([]string, len(tracedBackends))
	for i, name := range tracedBackends {
		backends[i] = tracedPrefix + name
	}
	_, err := waitornot.New(
		waitornot.Options{Rounds: 2, TrainPerClient: 32, SelectionSize: 8, TestPerClient: 16, LocalEpochs: 1, Parallelism: 4, SkipComboTables: true},
		waitornot.WithKind(waitornot.KindTradeoff),
		waitornot.WithBackends(backends...),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range tracedBackends {
		if got := traceStats[name][cCommits].Load(); got != want[i] {
			t.Errorf("%s: %d commits counted, want %d", name, got, want[i])
		}
	}
}
