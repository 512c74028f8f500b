package main

import (
	"sync"
	"sync/atomic"
	"time"

	"waitornot"
	"waitornot/internal/chain"
	"waitornot/internal/ledger"
)

// The trace measures every layer from outside the program: timestamps
// taken in an Observer, a ledger.Backend wrapper registered next to the
// real backends, and (probes.go) timed calls into each layer's exported
// functions. Nothing under the repo's own packages knows it is traced.

// tracedBackends are the substrates that get a timing wrapper.
var tracedBackends = []string{"pow", "poa", "pbft", "instant"}

// The counters a backend wrapper keeps.
const (
	cSubmitNs = iota
	cCommitNs
	cReadNs
	cSubmits
	cCommits
	cTxs
	cBytes
	cGas
	cRejected
	// cLatencyUs sums the modeled (virtual) commit latency in µs.
	cLatencyUs
	numCounters
)

// ledgerStats accumulates one backend family's spans and counts over
// the whole process. Sweep cells run concurrently and peers read their
// views in parallel, so every counter is atomic.
type ledgerStats [numCounters]atomic.Int64

// snapshot reads the counters as floats, for ratios.
func (s *ledgerStats) snapshot() (out [numCounters]float64) {
	for i := range s {
		out[i] = float64(s[i].Load())
	}
	return out
}

var (
	traceStats    = map[string]*ledgerStats{}
	registerTrace sync.Once
)

// registerTracedBackends registers "traced-<name>" for every built-in
// backend: the real factory's backend behind a wrapper that times
// Submit, Commit, StateView and CommittedTxs.
func registerTracedBackends() {
	registerTrace.Do(func() {
		for _, name := range tracedBackends {
			name := name
			inner, ok := ledger.Lookup(name)
			if !ok {
				panic("benchmark: backend " + name + " is not registered")
			}
			st := &ledgerStats{}
			traceStats[name] = st
			ledger.MustRegister(tracedPrefix+name, "benchmark timing wrapper over "+name,
				func(cfg ledger.Config) (ledger.Backend, error) {
					be, err := inner(cfg)
					if err != nil {
						return nil, err
					}
					tb := tracedBackend{Backend: be, name: tracedPrefix + name, st: st}
					if ch, ok := be.(ledger.Chainer); ok {
						return &tracedChainBackend{tracedBackend: tb, Chainer: ch}, nil
					}
					return &tb, nil
				})
		}
	})
}

// ledgerBusyNs is the time spent inside Submit and Commit so far, over
// all backends. Both run on the coordinator goroutine, so inside one
// run the value only moves while the coordinator is in the ledger.
func ledgerBusyNs() int64 {
	var ns int64
	for _, st := range traceStats {
		ns += st[cSubmitNs].Load() + st[cCommitNs].Load()
	}
	return ns
}

type tracedBackend struct {
	ledger.Backend
	name string
	st   *ledgerStats
}

// tracedChainBackend keeps the Chainer capability of chain-backed
// substrates visible through the wrapper.
type tracedChainBackend struct {
	tracedBackend
	ledger.Chainer
}

func (b *tracedBackend) Name() string { return b.name }

func (b *tracedBackend) Submit(tx *chain.Transaction) error {
	start := time.Now()
	err := b.Backend.Submit(tx)
	b.st[cSubmitNs].Add(int64(time.Since(start)))
	b.st[cSubmits].Add(1)
	if err != nil {
		b.st[cRejected].Add(1)
	}
	return err
}

func (b *tracedBackend) Commit(leader int, timeMs uint64) (ledger.Commit, error) {
	start := time.Now()
	c, err := b.Backend.Commit(leader, timeMs)
	b.st[cCommitNs].Add(int64(time.Since(start)))
	b.st[cCommits].Add(1)
	b.st[cTxs].Add(int64(c.Txs))
	b.st[cBytes].Add(int64(c.Bytes))
	b.st[cGas].Add(int64(c.GasUsed))
	b.st[cRejected].Add(int64(len(c.Rejected)))
	b.st[cLatencyUs].Add(int64(c.LatencyMs * 1000))
	return c, err
}

func (b *tracedBackend) StateView(peer int) *chain.State {
	start := time.Now()
	st := b.Backend.StateView(peer)
	b.st[cReadNs].Add(int64(time.Since(start)))
	return st
}

func (b *tracedBackend) CommittedTxs(peer int) []*chain.Transaction {
	start := time.Now()
	committed := b.Backend.CommittedTxs(peer)
	b.st[cReadNs].Add(int64(time.Since(start)))
	return committed
}

// The stages a round's host time is split into, by which event closed
// each interval. stageEncodeSign is the part of stageSubmit spent outside the
// ledger.
const (
	stageTrain = iota
	stageSubmit
	stageEncodeSign
	stageDecide
	stageRecord
	numStages
)

// stageNames are the stages' metric names under "bfl.".
var stageNames = [numStages]string{"train_stage_ms", "submit_stage_ms", "encode_sign_ms", "decide_stage_ms", "record_stage_ms"}

// stages is the host time of one barriered round or, for the async
// engine, of one whole run.
type stages [numStages]float64

// observer watches one repetition's event stream. Untraced it only
// notes when set-up ended and counts what the correctness checks need;
// with trace set it also timestamps every event. Events arrive
// serialized from the coordinator goroutine, so no locking.
type observer struct {
	start time.Time
	// first is when the first event (the registration block) arrived.
	first time.Time
	// onFirst, when set, runs once at the first event.
	onFirst func()

	regTxs, roundEnds, aggregations, cells int

	trace *eventTrace
}

// eventTrace holds what the traced observer records, pooled over the
// traced repetitions of a run. Every duration is host milliseconds.
type eventTrace struct {
	last     time.Time
	lastBusy int64

	inRound        bool
	sawSubmitBlock bool
	roundStart     time.Time
	cur            stages

	setupMs   []float64
	roundMs   []float64
	perRound  []stages
	asyncGaps []float64
	lastAgg   time.Time

	trained, included int
	simMs, waitMs     float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (o *observer) OnEvent(ev waitornot.Event) {
	now := time.Now()
	first := o.first.IsZero()
	if first {
		// The registration block: set-up ends here.
		o.first = now
		if bc, ok := ev.(waitornot.BlockCommitted); ok {
			o.regTxs = bc.Txs
		}
		if o.onFirst != nil {
			o.onFirst()
		}
	}
	switch ev.(type) {
	case waitornot.RoundEnd:
		o.roundEnds++
	case waitornot.AggregationDecided, waitornot.PeerAggregated:
		o.aggregations++
	case waitornot.SweepProgress:
		o.cells++
	}
	if o.trace != nil {
		o.trace.record(ev, now, o.start, first)
	}
}

// record attributes the interval since the previous event to the stage
// the new event closes. The barriered runner emits each stage's events
// in a burst when the stage ends, so the first event of a burst carries
// the stage and the rest carry microseconds.
func (t *eventTrace) record(ev waitornot.Event, now, runStart time.Time, first bool) {
	if t.last.IsZero() {
		t.last = runStart
		t.lastBusy = ledgerBusyNs()
	}
	gap := ms(now.Sub(t.last))
	busy := ledgerBusyNs()
	busyGap := float64(busy-t.lastBusy) / 1e6
	t.last, t.lastBusy = now, busy

	switch ev := ev.(type) {
	case waitornot.RoundStart:
		t.inRound, t.sawSubmitBlock = true, false
		t.roundStart = now
		t.cur = stages{}
	case waitornot.PeerTrained:
		t.cur[stageTrain] += gap
		t.trained++
		t.simMs += ev.SimMs
	case waitornot.ModelSubmitted:
		t.cur[stageSubmit] += gap
	case waitornot.BlockCommitted:
		switch {
		case first:
			t.setupMs = append(t.setupMs, gap)
		case t.inRound && t.sawSubmitBlock:
			t.cur[stageRecord] += gap
		default:
			t.cur[stageSubmit] += gap
			t.cur[stageEncodeSign] += gap - busyGap
			t.sawSubmitBlock = true
		}
	case waitornot.AggregationDecided:
		t.cur[stageDecide] += gap
		t.included += ev.Included
		t.waitMs += ev.WaitMs
	case waitornot.PeerAggregated:
		t.cur[stageDecide] += gap
		t.included += ev.Included
		t.waitMs += ev.WaitMs
		if !t.lastAgg.IsZero() {
			t.asyncGaps = append(t.asyncGaps, ms(now.Sub(t.lastAgg)))
		}
		t.lastAgg = now
	case waitornot.RoundEnd:
		t.cur[stageRecord] += gap
		t.roundMs = append(t.roundMs, ms(now.Sub(t.roundStart)))
		t.perRound = append(t.perRound, t.cur)
		t.inRound = false
	}
}

// endRun closes one traced repetition. The async engine has no fleet
// rounds, so its stages are the run's totals per peer-round.
func (t *eventTrace) endRun(async bool, ops int) {
	if async {
		// The async engine encodes and signs inside the interval its next
		// event closes, so it cannot be told apart from training there.
		t.cur[stageEncodeSign] = 0
		for i := range t.cur {
			t.cur[i] /= float64(ops)
		}
		t.perRound = append(t.perRound, t.cur)
		t.cur = stages{}
	}
	t.last, t.lastAgg = time.Time{}, time.Time{}
}

// stage returns the median of one stage over the recorded rounds.
func (t *eventTrace) stage(i int) float64 {
	xs := make([]float64, len(t.perRound))
	for r, s := range t.perRound {
		xs[r] = s[i]
	}
	return median(xs)
}
