package waitornot

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"waitornot/internal/bfl"
	"waitornot/internal/event"
	"waitornot/internal/metrics"
)

// AsyncRoundInfo is one un-barriered aggregation of one peer in a
// KindAsync run — the engine's own record: the peer's round counter;
// the round's timeline on the shared virtual clock (OpenMs training
// started, ReadyMs own training completed, FiredMs wait policy fired,
// WaitMs = FiredMs - OpenMs); what the staleness-weighted merge
// produced (Included updates of MeanStalenessMs mean age, the merged
// model's test Accuracy, the Rejected clients); and ClosedOut for a
// horizon-forced merge rather than a policy firing.
type AsyncRoundInfo = bfl.AsyncRound

// AsyncReport is the asynchronous experiment's output — the engine's
// result itself: per-peer aggregation schedules on the shared virtual
// clock (Rounds[peer], in firing order; peers complete different
// numbers of rounds under a time budget), InitialAccuracy[peer] of the
// shared starting model (the t=0 point of the timeline they induce),
// the ledger footprint Chain, and HorizonMs, the virtual time the run
// ended at. Where the barriered kinds answer "what accuracy after N
// rounds", KindAsync answers "what accuracy by time T" — the paper's
// wait-or-not question asked on the axis it actually lives on.
type AsyncReport bfl.AsyncResult

// runAsyncExperiment is the engine-facing async runner behind
// Experiment.Run; world is as for runDecentralizedExperiment.
func runAsyncExperiment(ctx context.Context, opts Options, sink event.Sink, world *bfl.World) (*AsyncReport, error) {
	cfg := opts.decentralized()
	cfg.Events, cfg.World = sink, world
	res, err := bfl.RunAsync(ctx, cfg)
	return (*AsyncReport)(res), err
}

// Headline reduces the report to the trade-off study's three headline
// metrics — the final fleet accuracy (the timeline's last point), mean
// per-round wait, mean merged-update count — making async cells
// directly comparable to (and sweepable alongside) the barriered kinds.
func (r *AsyncReport) Headline() (finalAccuracy, meanWaitMs, meanIncluded float64) {
	meanWaitMs, meanIncluded = headlineMeans(r.Rounds, func(ri AsyncRoundInfo) (float64, float64) {
		return ri.WaitMs, float64(ri.Included)
	})
	return r.timeline().final(), meanWaitMs, meanIncluded
}

// Timeline returns the fleet's accuracy-vs-virtual-time curve: at t=0
// and after every aggregation, the mean of each peer's latest adopted
// accuracy (the shared initial model's until the peer aggregates).
func (r *AsyncReport) Timeline() []TimelinePoint { return r.timeline() }

// timeline walks every aggregation in virtual-time order from the t=0
// point (none for a report without peers); ties fire in peer order,
// matching the engine's event order.
func (r *AsyncReport) timeline() timeline {
	type step struct {
		at   float64
		peer int
		acc  float64
	}
	var steps []step
	for p, rounds := range r.Rounds {
		for _, ri := range rounds {
			steps = append(steps, step{at: ri.FiredMs, peer: p, acc: ri.Accuracy})
		}
	}
	slices.SortStableFunc(steps, func(a, b step) int { return cmp.Or(cmp.Compare(a.at, b.at), a.peer-b.peer) })
	latest := make([]float64, len(r.PeerNames))
	copy(latest, r.InitialAccuracy)
	if len(latest) == 0 {
		return nil
	}
	mean := func() float64 {
		var s float64
		for _, a := range latest {
			s += a
		}
		return s / float64(len(latest))
	}
	out := timeline{{AtMs: 0, MeanAccuracy: mean()}}
	for _, st := range steps {
		latest[st.peer] = st.acc
		out = append(out, TimelinePoint{AtMs: st.at, MeanAccuracy: mean()})
	}
	return out
}

// TimeToAccuracyMs returns the earliest virtual time at which the
// fleet's mean latest accuracy reaches target, or -1 if the run never
// got there — the speed axis of the wait-or-not trade-off.
func (r *AsyncReport) TimeToAccuracyMs(target float64) float64 {
	return r.timeline().timeToAccuracyMs(target)
}

// Table renders each peer's aggregation schedule.
func (r *AsyncReport) Table() string {
	tab := metrics.NewTable(
		"Asynchronous free run: per-peer aggregations on the virtual clock",
		"peer", "round", "fired (ms)", "wait (ms)", "models", "staleness (ms)", "accuracy", "note")
	for p, name := range r.PeerNames {
		for _, ri := range r.Rounds[p] {
			note := ""
			if ri.ClosedOut {
				note = "closed out"
			}
			tab.Add(name, fmt.Sprint(ri.Round), fmt.Sprintf("%.1f", ri.FiredMs),
				fmt.Sprintf("%.1f", ri.WaitMs), fmt.Sprint(ri.Included),
				fmt.Sprintf("%.1f", ri.MeanStalenessMs), metrics.Acc(ri.Accuracy), note)
		}
	}
	return tab.ASCII()
}

// TimeToAccuracyTable renders the virtual time needed to reach each
// target accuracy ("n/a" when the run never got there) — the
// time-to-accuracy view of the async trade-off.
func (r *AsyncReport) TimeToAccuracyTable(targets ...float64) string {
	return r.timeline().table(targets...)
}

// CSV renders the fleet timeline machine-readably.
func (r *AsyncReport) CSV() string { return r.timeline().csv() }

// Summary renders a one-paragraph digest for CLI output.
func (r *AsyncReport) Summary() string {
	acc, wait, included := r.Headline()
	roundsDone := 0
	for _, rs := range r.Rounds {
		roundsDone += len(rs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "async horizon %.1f ms: %d aggregations across %d peers, mean final accuracy %s, mean round %.1f ms, mean models %.2f",
		r.HorizonMs, roundsDone, len(r.PeerNames), metrics.Acc(acc), wait, included)
	return b.String()
}
