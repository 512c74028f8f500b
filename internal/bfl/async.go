package bfl

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"waitornot/internal/chain"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/par"
	"waitornot/internal/simnet"
	"waitornot/internal/vclock"
	"waitornot/internal/xrand"
)

// AsyncRound records one un-barriered aggregation of one peer in the
// asynchronous engine: its own round counter, the round's timeline on
// the shared virtual clock, and what the staleness-weighted merge
// produced.
type AsyncRound struct {
	Round int
	// OpenMs is when the peer started this round's local training;
	// ReadyMs when its own training completed; FiredMs when its wait
	// policy fired (all on the shared virtual clock).
	OpenMs  float64
	ReadyMs float64
	FiredMs float64
	// WaitMs is FiredMs - OpenMs: the full round duration at this peer.
	WaitMs float64
	// Included is how many updates the merge admitted (own included).
	Included int
	// MeanStalenessMs is the included updates' mean age (firing time
	// minus each update's training completion).
	MeanStalenessMs float64
	// Accuracy is the merged model's accuracy on the peer's test set.
	Accuracy float64
	// Rejected lists clients screened out by the abnormal-model filter.
	Rejected []string
	// ClosedOut marks an aggregation forced by the engine at the run's
	// horizon (time budget or quiescence) rather than by the policy.
	ClosedOut bool
}

// AsyncResult is the asynchronous experiment's complete output.
type AsyncResult struct {
	PeerNames []string
	// InitialAccuracy[peer] is the shared starting model's accuracy on
	// that peer's test set — the t=0 point of accuracy-vs-time curves.
	InitialAccuracy []float64
	// Rounds[peer] are that peer's aggregations in firing order. Peers
	// complete different numbers of rounds under a time budget.
	Rounds [][]AsyncRound
	// Chain is the ledger footprint (commits happen on the clock, at
	// the backend's cadence boundaries).
	Chain ChainStats
	// HorizonMs is the virtual time the run ended at.
	HorizonMs float64
}

// asyncArrival is one remote update visible at a peer, not yet merged.
type asyncArrival struct {
	u *fl.Update
	// completedMs is the producer's training completion (staleness base).
	completedMs float64
}

// asyncPeer is one peer's free-running state.
type asyncPeer struct {
	*peerState
	idx int
	// slot is the peer's index in the engine's materialized fleet (and
	// thus the ledger's views/sealers). Equal to idx in classic runs;
	// under ClientFraction the cohort is a subset of the fleet.
	slot int
	// rng draws the peer's compute multipliers and network jitter —
	// derived streams, so the synchronous runner's streams are
	// untouched.
	rng *xrand.RNG

	round    int
	openMs   float64
	readyMs  float64
	training *par.Task // the open round's training: sets own, joined at trainDone
	own      *fl.Update
	waiting  bool
	// lastTxAt is when the peer's most recent transaction reached the
	// gossiped pending set. Each peer's transactions ride one ordered
	// connection: a later-created transaction never overtakes an
	// earlier one, which is what keeps nonces contiguous on arrival.
	lastTxAt float64
	// inbox holds the latest unconsumed update per remote client.
	inbox map[string]asyncArrival
}

// asyncEngine drives the un-barriered schedule: every training
// completion, gossip hop, ledger commit, and policy deadline is an
// event on the shared virtual clock, with (time, peer, seq) ordering
// making the whole run a pure function of the configuration. Events
// run one at a time; trainings run on tasks started and joined at fixed
// events (DESIGN.md §7), so results are bit-identical at any Parallelism.
type asyncEngine struct {
	*engine
	ctx context.Context
	// clock is the run's virtual-time event queue.
	clock *vclock.Clock
	tasks *par.Tasks

	peers    []*asyncPeer
	res      *AsyncResult
	halfLife float64
	budgetMs float64

	// commitAt de-duplicates commit events per cadence boundary.
	commitAt    map[float64]bool
	commitCount int
}

// RunAsync executes the asynchronous experiment: no global barrier —
// each peer trains, submits, waits only as long as its policy says,
// merges what has arrived with staleness-weighted averaging, and
// immediately opens its next round. Reports are accuracy-vs-virtual-
// time rather than accuracy-vs-round.
func RunAsync(ctx context.Context, cfg Config) (_ *AsyncResult, err error) {
	cfg.EvalAllCombos = false // the async engine has no combination grid
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.leave(&err)
	e.verifyRound = e.cfg.Rounds // commits land between rounds; fire never passes the last
	// Registration is the clock's first event, at the first cadence
	// boundary; it commits whatever the time budget says.
	clock := vclock.New()
	clock.Schedule(e.clockStep, vclock.Global, func() error { return e.registerAt(e.clockStep) })
	if err := clock.RunUntil(e.clockStep); err != nil {
		return nil, err
	}
	// The free-running cohort: under ClientFraction the round-1 sample
	// runs the whole horizon (there is no global round boundary at which
	// to re-draw), so the async engine is a K-peer experiment over
	// identities drawn from the registered fleet. Classic runs keep
	// every peer.
	cohort := e.roundParticipants(1)
	a := &asyncEngine{
		engine:   e,
		ctx:      ctx,
		clock:    clock,
		tasks:    par.NewTasks(e.cfg.Parallelism),
		budgetMs: e.cfg.TimeBudgetMs,
		commitAt: map[float64]bool{},
		res: &AsyncResult{
			PeerNames:       make([]string, len(cohort)),
			InitialAccuracy: make([]float64, len(cohort)),
			Rounds:          make([][]AsyncRound, len(cohort)),
		},
	}
	defer a.tasks.Close() // on every return: no training outlives the run
	var meanTrain float64
	for i, s := range cohort {
		p := e.peers[s]
		a.peers = append(a.peers, &asyncPeer{
			peerState: p,
			idx:       i,
			slot:      s,
			rng:       e.root.Derive("async-" + p.name),
			inbox:     map[string]asyncArrival{},
		})
		a.res.PeerNames[i] = p.name
		a.res.InitialAccuracy[i] = p.testAcc(e.w.initialKey, fl.Vector(e.w.initial))
		meanTrain += p.simTrainMs
	}
	// The staleness half-life is the fleet's full round timescale —
	// training plus propagation plus (when modeled) commit latency — so
	// updates one round old carry roughly half weight regardless of
	// which term dominates the deployment.
	a.halfLife = meanTrain/float64(len(a.peers)) + baseLatencyMs
	if !e.cfg.Network.IsZero() {
		a.halfLife += e.cfg.Network.Mean
	}
	if e.cfg.CommitLatency {
		a.halfLife += e.be.CommitLatencyMs()
	}

	for _, p := range a.peers {
		p := p
		clock.Schedule(clock.Now(), p.idx, func() error { return a.startRound(p) })
	}
	if err := a.drain(); err != nil {
		return nil, err
	}
	a.res.HorizonMs = clock.Now()
	a.res.Chain = e.chainStats()
	return a.res, nil
}

// drain pumps the clock to completion — to the budget, or to
// quiescence — then closes out every peer still waiting at the horizon.
// A close-out schedules nothing (no record transaction, no next round),
// so one pass ends the run.
func (a *asyncEngine) drain() error {
	run := a.clock.Run
	if a.budgetMs > 0 {
		run = func() error { return a.clock.RunUntil(a.budgetMs) }
	}
	if err := run(); err != nil {
		return err
	}
	for _, p := range a.peers {
		if p.waiting {
			if err := a.fire(p, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// pastBudget reports whether the clock has reached the time budget.
func (a *asyncEngine) pastBudget() bool {
	return a.budgetMs > 0 && a.clock.Now() >= a.budgetMs
}

// startRound opens the peer's next round: schedule its training
// completion one compute draw away and start the training, whose inputs
// are final now (DESIGN.md §7), unless that completion is past the budget.
func (a *asyncEngine) startRound(p *asyncPeer) error {
	if err := a.ctx.Err(); err != nil {
		return err
	}
	p.round++
	p.openMs = a.clock.Now()
	dur := p.simTrainMs * a.cfg.Compute.Draw(p.rng)
	if done := p.openMs + dur; a.budgetMs <= 0 || done <= a.budgetMs {
		p.training = a.tasks.Go(done, p.idx, func() (err error) {
			p.own, err = a.train(p.peerState, p.round)
			return err
		})
	}
	a.clock.After(dur, p.idx, func() error { return a.trainDone(p, dur) })
	return nil
}

// trainDone joins the round's local training (its cost is virtual; the
// computation is real), submits the signed model transaction into the
// gossip network, and starts the peer's wait.
func (a *asyncEngine) trainDone(p *asyncPeer, dur float64) error {
	if err := a.ctx.Err(); err != nil {
		return err
	}
	if err := a.tasks.Wait(p.training); err != nil {
		return err
	}
	up := p.own
	p.readyMs = a.clock.Now()
	a.sink.Emit(event.PeerTrained{
		Round: p.round, Peer: p.name, Samples: up.NumSamples,
		SimMs: dur, VirtualMs: p.readyMs,
	})

	tx, size, err := a.submitTx(p.peerState, p.round, up)
	if err != nil {
		return err
	}
	delay := baseLatencyMs + float64(size)/1024*perKBMs
	if !a.cfg.Network.IsZero() {
		delay += a.cfg.Network.Draw(p.rng)
	}
	completed := p.readyMs
	round := p.round
	a.clock.Schedule(a.wireArrival(p, delay), p.idx, func() error {
		return a.submitted(p, tx, up, round, size, completed)
	})

	// The wait opens now: probe immediately (a first-1 policy fires on
	// the peer's own model), and arm the deadline if the policy has one.
	p.waiting = true
	if a.probe(p) {
		return a.fire(p, false)
	}
	if d := a.cfg.Policy.Deadline; d > 0 {
		at := p.openMs + float64(d)/float64(time.Millisecond)
		if at > a.clock.Now() {
			a.clock.Schedule(at, p.idx, func() error {
				if p.waiting && p.round == round && a.probe(p) {
					return a.fire(p, false)
				}
				return nil
			})
		}
	}
	return nil
}

// submitted lands the model transaction in the gossiped pending set,
// schedules the ledger commit at the backend's next cadence boundary,
// and delivers visibility to every other peer — at the commit boundary
// when commit latency is modeled, immediately otherwise (the
// historical arrival model).
func (a *asyncEngine) submitted(p *asyncPeer, tx *chain.Transaction, up *fl.Update, round, bytes int, completedMs float64) error {
	if err := a.be.Submit(tx); err != nil {
		return fmt.Errorf("bfl: %s round %d submission tx: %w", p.name, round, err)
	}
	now := a.clock.Now()
	a.sink.Emit(event.ModelSubmitted{Round: round, Peer: p.name, Bytes: bytes, VirtualMs: now})
	if err := a.scheduleCommit(now); err != nil {
		return err
	}
	visibleMs := now
	if a.cfg.CommitLatency {
		visibleMs = simnet.CommitVisibilityMs(now, a.be.CommitLatencyMs())
	}
	arr := asyncArrival{u: up, completedMs: completedMs}
	for _, q := range a.peers {
		if q == p {
			continue
		}
		q := q
		a.clock.Schedule(visibleMs, q.idx, func() error { return a.deliver(q, arr) })
	}
	return nil
}

// wireArrival models the peer's ordered gossip connection: the next
// transaction lands delay ms from now, but never before the previous
// one did (same-instant arrivals keep scheduling = nonce order, since
// the clock breaks full ties by sequence).
func (a *asyncEngine) wireArrival(p *asyncPeer, delay float64) float64 {
	at := a.clock.Now() + delay
	if at < p.lastTxAt {
		at = p.lastTxAt
	}
	p.lastTxAt = at
	return at
}

// deliver hands a remote update to one peer's inbox (latest per client
// wins) and probes its policy if it is waiting.
func (a *asyncEngine) deliver(q *asyncPeer, arr asyncArrival) error {
	if prev, ok := q.inbox[arr.u.Client]; !ok || arr.completedMs >= prev.completedMs {
		q.inbox[arr.u.Client] = arr
	}
	if q.waiting && a.probe(q) {
		return a.fire(q, false)
	}
	return nil
}

// probe asks the wait policy whether the peer should aggregate now.
func (a *asyncEngine) probe(p *asyncPeer) bool {
	received := 1 + len(p.inbox)
	elapsed := time.Duration((a.clock.Now() - p.openMs) * float64(time.Millisecond))
	return a.cfg.Policy.Ready(received, len(a.peers), elapsed)
}

// fire merges everything the peer has — its own update plus the
// unconsumed latest update of each remote client — with staleness-
// weighted averaging, adopts the result, records the decision
// on-chain, and opens the next round. closeOut marks a horizon-forced
// aggregation (no policy fired; no follow-up round under a budget).
func (a *asyncEngine) fire(p *asyncPeer, closeOut bool) error {
	now := a.clock.Now()
	updates := []*fl.Update{p.own}
	ages := map[string]float64{p.name: now - p.readyMs}
	for _, arr := range p.inbox {
		updates = append(updates, arr.u)
		ages[arr.u.Client] = now - arr.completedMs
	}
	sort.Slice(updates, func(i, j int) bool { return updates[i].Client < updates[j].Client })

	fres := a.cfg.Filter.Apply(p.name, updates, p.agg.Eval)
	kept := fres.Kept
	keptAges := make([]float64, len(kept))
	var staleSum float64
	for i, u := range kept {
		keptAges[i] = ages[u.Client]
		staleSum += keptAges[i]
	}
	coef := fl.StalenessWeights(kept, keptAges, a.halfLife)
	// Merge into the peer's reused scratch. Adopting the alias is safe:
	// the next round's training reads it once, in Scratch.Train, and this
	// peer's next fire — the only thing that overwrites the scratch —
	// runs on the clock only after trainDone has joined that task.
	merged, err := p.avg.WeightedFedAvg(kept, coef)
	if err != nil {
		return fmt.Errorf("bfl: %s round %d merge: %w", p.name, p.round, err)
	}
	p.adopted, p.adoptedKey = merged, fl.MergeKey(kept, coef)
	acc := p.testAcc(p.adoptedKey, fl.Vector(merged))

	var rejected []string
	for _, u := range fres.Rejected {
		rejected = append(rejected, u.Client)
	}
	st := AsyncRound{
		Round:           p.round,
		OpenMs:          p.openMs,
		ReadyMs:         p.readyMs,
		FiredMs:         now,
		WaitMs:          now - p.openMs,
		Included:        len(kept),
		MeanStalenessMs: staleSum / float64(len(kept)),
		Accuracy:        acc,
		Rejected:        rejected,
		ClosedOut:       closeOut,
	}
	a.res.Rounds[p.idx] = append(a.res.Rounds[p.idx], st)
	a.sink.Emit(event.PeerAggregated{
		Round: p.round, Peer: p.name, VirtualMs: now,
		WaitMs: st.WaitMs, Included: st.Included,
		MeanStalenessMs: st.MeanStalenessMs, Accuracy: acc,
		Rejected: rejected,
	})

	p.inbox = map[string]asyncArrival{}
	p.own = nil
	p.waiting = false

	// Record the merge on-chain (the paper's non-repudiation trail),
	// except at close-out: past the horizon nothing commits.
	if !closeOut {
		label := clientLabel(len(kept), func(k int) string { return kept[k].Client })
		tx, err := a.recordTx(p.peerState, p.round, label, p.adoptedKey, merged, len(kept))
		if err != nil {
			return err
		}
		round := p.round
		a.clock.Schedule(a.wireArrival(p, baseLatencyMs), p.idx, func() error {
			if err := a.be.Submit(tx); err != nil {
				return fmt.Errorf("bfl: %s round %d decision tx: %w", p.name, round, err)
			}
			return a.scheduleCommit(a.clock.Now())
		})
	}

	a.passMemo(min(len(slices.MinFunc(a.res.Rounds, func(x, y []AsyncRound) int { return len(x) - len(y) })), a.cfg.Rounds-1)) // all peers fired these, after the record filed under p.round; the last is verifyRound
	if p.round < a.cfg.Rounds && !closeOut && !a.pastBudget() {
		a.clock.Schedule(now, p.idx, func() error { return a.startRound(p) })
	}
	return nil
}

// scheduleCommit arms one ledger commit at the backend's next cadence
// boundary strictly after t. Boundaries already armed are reused: one
// block carries everything pending at its instant, exactly the simnet
// visibility rule. Zero-latency backends have no cadence boundary at
// all — they commit synchronously the moment a transaction lands
// (commit events sort first at an instant, so deferring to "the same
// time" would run before same-instant submissions and strand them).
func (a *asyncEngine) scheduleCommit(t float64) error {
	interval := a.be.CommitLatencyMs()
	if interval <= 0 {
		return a.commitPending()
	}
	at := simnet.CommitVisibilityMs(t, interval)
	if a.commitAt[at] {
		return nil
	}
	a.commitAt[at] = true
	a.clock.Schedule(at, vclock.Global, func() error {
		if err := a.commitPending(); err != nil {
			return err
		}
		// Capacity-evicted stragglers re-arm the next boundary.
		if a.be.Pending(0) > 0 {
			return a.scheduleCommit(a.clock.Now())
		}
		return nil
	})
	return nil
}

// commitPending seals everything pending as one batch at the current
// clock instant.
func (a *asyncEngine) commitPending() error {
	if a.be.Pending(0) == 0 {
		return nil
	}
	now := a.clock.Now()
	leader := a.peers[a.commitCount%len(a.peers)].slot
	a.commitCount++
	if _, err := a.commit(0, leader, now); err != nil {
		return fmt.Errorf("bfl: commit at %gms: %w", now, err)
	}
	return nil
}
