package waitornot

import (
	"context"
	"fmt"
	"strings"

	"waitornot/internal/bfl"
	"waitornot/internal/event"
	"waitornot/internal/metrics"
)

// VanillaReport is the centralized experiment's output (Table I /
// Figure 3) — the engine's result itself, read from the same world as
// the decentralized run of the same Options: ClientNames;
// Consider[client][round-1] / NotConsider[client][round-1], the test
// accuracies under the two aggregation types; and
// ConsiderCombos[round-1], the combination the consider aggregator
// adopted each round.
type VanillaReport bfl.VanillaResult

// runVanillaExperiment is the engine-facing vanilla runner behind
// Experiment.Run.
func runVanillaExperiment(ctx context.Context, opts Options, sink event.Sink) (*VanillaReport, error) {
	cfg := opts.decentralized()
	cfg.Events = sink
	res, err := bfl.RunVanilla(ctx, cfg)
	return (*VanillaReport)(res), err
}

// TableI renders the report in the layout of the paper's Table I.
func (r *VanillaReport) TableI(model string) string {
	rounds := 0
	if len(r.Consider) > 0 {
		rounds = len(r.Consider[0])
	}
	header := []string{"Client", "Params"}
	for i := 1; i <= rounds; i++ {
		header = append(header, fmt.Sprintf("r%d", i))
	}
	tab := metrics.NewTable("Table I — Vanilla FL ("+model+"): clients' test accuracy under two aggregation types", header...)
	for ci, name := range r.ClientNames {
		rowC := []string{name, "Consider"}
		rowN := []string{"", "Not consider"}
		for ri := 0; ri < rounds; ri++ {
			rowC = append(rowC, metrics.Acc(r.Consider[ci][ri]))
			rowN = append(rowN, metrics.Acc(r.NotConsider[ci][ri]))
		}
		tab.Add(rowC...)
		tab.Add(rowN...)
	}
	return tab.ASCII()
}

// Figure3 renders the per-client accuracy curves (the paper's Figure 3).
func (r *VanillaReport) Figure3(model string) string {
	var b strings.Builder
	for ci, name := range r.ClientNames {
		b.WriteString(metrics.Plot(
			fmt.Sprintf("Figure 3 (%s) — Client %s: test accuracy per round", model, name),
			[]metrics.Series{
				{Name: "consider", Y: r.Consider[ci]},
				{Name: "not consider", Y: r.NotConsider[ci]},
			}, 50, 12))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the full result grid.
func (r *VanillaReport) CSV() string {
	tab := metrics.NewTable("", "client", "mode", "round", "accuracy")
	for ci, name := range r.ClientNames {
		for ri := range r.Consider[ci] {
			tab.Add(name, "consider", fmt.Sprint(ri+1), metrics.Acc(r.Consider[ci][ri]))
			tab.Add(name, "not_consider", fmt.Sprint(ri+1), metrics.Acc(r.NotConsider[ci][ri]))
		}
	}
	return tab.CSV()
}

// RoundInfo is one peer-round of the decentralized run: the round
// number, how many updates the wait policy admitted (Included), the
// simulated wait until it fired (WaitMs) and its four terms for the
// update that fired it (ComputeMs, PropagateMs, CommitMs, IdleMs,
// which sum to WaitMs), the adopted combination and its test accuracy,
// and the clients the abnormal-model filter rejected. It is the
// engine's own record — what a round record contains is decided in one
// place.
type RoundInfo = bfl.RoundStats

// ChainSummary is the on-chain footprint of a decentralized run:
// blocks, transactions (of which Submissions and Decisions), gas and
// bytes. VerifyRejected counts submissions the backend's model
// verification excluded from aggregation (pbft; 0 elsewhere) — they
// stay in Submissions: on the chain, not on the contract.
type ChainSummary = bfl.ChainStats

// DecentralizedReport is the blockchain experiment's output
// (Tables II-IV / Figure 4) — the engine's result itself, under the
// facade's name and renderers: PeerNames; ComboLabels[peer], the table
// row labels from that peer's perspective, and
// ComboAccuracy[peer][round-1][combo], their test accuracies (empty
// when SkipComboTables); Rounds[peer][round-1], the aggregation that
// actually happened under the wait policy; and Chain, the footprint of
// the canonical chain all peers converged on.
type DecentralizedReport bfl.Result

// runDecentralizedExperiment is the engine-facing decentralized
// runner behind Experiment.Run; a non-nil world is bfl.Config.World.
func runDecentralizedExperiment(ctx context.Context, opts Options, sink event.Sink, world *bfl.World) (*DecentralizedReport, error) {
	cfg := opts.decentralized()
	cfg.Events, cfg.World = sink, world
	res, err := bfl.Run(ctx, cfg)
	return (*DecentralizedReport)(res), err
}

// Headline reduces the report to the trade-off study's three headline
// metrics: the final fleet accuracy (the timeline's last point: the
// mean over peers of each one's last adopted-model accuracy), and the
// mean per-round wait and included-model count across peers and
// rounds — the per-policy outcomes of KindTradeoff and RunSweep's
// per-replication samples.
func (r *DecentralizedReport) Headline() (finalAccuracy, meanWaitMs, meanIncluded float64) {
	meanWaitMs, meanIncluded = headlineMeans(r.Rounds, func(ri RoundInfo) (float64, float64) {
		return ri.WaitMs, float64(ri.Included)
	})
	return r.timeline().final(), meanWaitMs, meanIncluded
}

// TimeToAccuracyMs returns the cumulative virtual time at which the
// fleet's mean adopted accuracy first reaches target, or -1 if it
// never does — the speed axis time-to-target sweeps compare on.
func (r *DecentralizedReport) TimeToAccuracyMs(target float64) float64 {
	return r.timeline().timeToAccuracyMs(target)
}

// timeline is the barriered run's fleet-accuracy curve, one point per
// round with records (no t=0 point: the report carries no initial
// accuracy). A barriered round costs its slowest peer's wait, so x is
// the running sum of the per-round maxima; y is the mean over peers
// with a record so far of each one's latest adopted accuracy — a peer
// a subsampled round skipped keeps its last adopted model.
func (r *DecentralizedReport) timeline() timeline {
	next := make([]int, len(r.Rounds)) // each peer's first record not yet adopted
	latest := make([]float64, len(r.Rounds))
	var out timeline
	var cum float64
	for rd, more := 1, true; more; rd++ {
		var slowest, sum float64
		adopted, n := false, 0
		more = false
		for p, rounds := range r.Rounds {
			if i := next[p]; i < len(rounds) && rounds[i].Round <= rd {
				latest[p], next[p], adopted = rounds[i].ChosenAccuracy, i+1, true
				slowest = max(slowest, rounds[i].WaitMs)
			}
			if next[p] > 0 {
				sum += latest[p]
				n++
			}
			more = more || next[p] < len(rounds)
		}
		if adopted {
			cum += slowest
			out = append(out, TimelinePoint{AtMs: cum, MeanAccuracy: sum / float64(n)})
		}
	}
	return out
}

// PeerTable renders one peer's combination table (the paper's Table II,
// III, or IV for peers 0, 1, 2).
func (r *DecentralizedReport) PeerTable(peer int, model string) string {
	if peer < 0 || peer >= len(r.PeerNames) {
		return ""
	}
	rounds := len(r.ComboAccuracy[peer])
	header := []string{"Params from"}
	for i := 1; i <= rounds; i++ {
		header = append(header, fmt.Sprintf("r%d", i))
	}
	tab := metrics.NewTable(
		fmt.Sprintf("Table %s — Blockchain-based FL (%s): test accuracy per model combination, client %s",
			[]string{"II", "III", "IV"}[min(peer, 2)], model, r.PeerNames[peer]),
		header...)
	for comboIdx, label := range r.ComboLabels[peer] {
		row := []string{label}
		for ri := 0; ri < rounds; ri++ {
			row = append(row, metrics.Acc(r.ComboAccuracy[peer][ri][comboIdx]))
		}
		tab.Add(row...)
	}
	return tab.ASCII()
}

// Figure4 renders the combination curves per peer (the paper's
// Figure 4).
func (r *DecentralizedReport) Figure4(model string) string {
	var b strings.Builder
	for p, name := range r.PeerNames {
		if len(r.ComboAccuracy[p]) == 0 {
			continue
		}
		series := make([]metrics.Series, len(r.ComboLabels[p]))
		for ci, label := range r.ComboLabels[p] {
			y := make([]float64, len(r.ComboAccuracy[p]))
			for ri := range r.ComboAccuracy[p] {
				y[ri] = r.ComboAccuracy[p][ri][ci]
			}
			series[ci] = metrics.Series{Name: label, Y: y}
		}
		b.WriteString(metrics.Plot(
			fmt.Sprintf("Figure 4 (%s) — Client %s: accuracy per model combination", model, name),
			series, 50, 12))
		b.WriteByte('\n')
	}
	return b.String()
}
