package waitornot

import (
	"context"
	"fmt"
	"strings"

	"waitornot/internal/bfl"
	"waitornot/internal/event"
	"waitornot/internal/fl"
	"waitornot/internal/metrics"
)

// VanillaReport is the centralized experiment's output (Table I /
// Figure 3) — the engine's result itself: ClientNames;
// Consider[client][round-1] / NotConsider[client][round-1], the test
// accuracies under the two aggregation types; and
// ConsiderCombos[round-1], the combination the consider aggregator
// adopted each round.
type VanillaReport fl.VanillaResult

// runVanillaExperiment is the engine-facing vanilla runner behind
// Experiment.Run.
func runVanillaExperiment(ctx context.Context, opts Options, sink event.Sink) (*VanillaReport, error) {
	cfg := opts.vanilla()
	cfg.Events = sink
	res, err := fl.Run(ctx, cfg)
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
// simulated wait until it fired (WaitMs), the adopted combination and
// its test accuracy, and the clients the abnormal-model filter
// rejected. It is the engine's own record — what a round record
// contains is decided in one place.
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
// metrics: the mean adopted-model final-round accuracy across peers,
// and the mean per-round aggregation wait and included-model count
// across peers and rounds. The per-policy outcomes of KindTradeoff and
// the per-replication samples of RunSweep are both this reduction.
func (r *DecentralizedReport) Headline() (finalAccuracy, meanWaitMs, meanIncluded float64) {
	var acc, wait, included float64
	var accN, waitN int
	for peer := range r.Rounds {
		rounds := r.Rounds[peer]
		if len(rounds) == 0 {
			continue
		}
		acc += rounds[len(rounds)-1].ChosenAccuracy
		accN++
		for _, ri := range rounds {
			wait += ri.WaitMs
			included += float64(ri.Included)
			waitN++
		}
	}
	// Degenerate reports (no peers, no rounds) reduce to zeros, never
	// NaN: downstream tables and sweep cells must stay renderable.
	if accN > 0 {
		finalAccuracy = acc / float64(accN)
	}
	if waitN > 0 {
		meanWaitMs = wait / float64(waitN)
		meanIncluded = included / float64(waitN)
	}
	return finalAccuracy, meanWaitMs, meanIncluded
}

// TimeToAccuracyMs returns the cumulative virtual time at which the
// fleet's mean adopted accuracy first reaches target, or -1 if it
// never does. Rounds are barriered, so each costs the slowest peer's
// wait: the cumulative clock after round r is the sum of the per-round
// maxima — the synchronous counterpart of AsyncReport.TimeToAccuracyMs
// and the speed axis time-to-target sweeps compare policies on.
// Peer round lists are ragged under client subsampling (a peer's list
// only grows in rounds it was sampled), so rounds are keyed by each
// record's Round number and the mean is over that round's participants.
func (r *DecentralizedReport) TimeToAccuracyMs(target float64) float64 {
	maxRound := 0
	for _, rounds := range r.Rounds {
		for _, ri := range rounds {
			if ri.Round > maxRound {
				maxRound = ri.Round
			}
		}
	}
	if maxRound == 0 {
		return -1
	}
	accSum := make([]float64, maxRound+1)
	accN := make([]int, maxRound+1)
	maxWait := make([]float64, maxRound+1)
	for _, rounds := range r.Rounds {
		for _, ri := range rounds {
			accSum[ri.Round] += ri.ChosenAccuracy
			accN[ri.Round]++
			if ri.WaitMs > maxWait[ri.Round] {
				maxWait[ri.Round] = ri.WaitMs
			}
		}
	}
	var cum float64
	for rd := 1; rd <= maxRound; rd++ {
		if accN[rd] == 0 {
			continue
		}
		cum += maxWait[rd]
		if accSum[rd]/float64(accN[rd]) >= target {
			return cum
		}
	}
	return -1
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
