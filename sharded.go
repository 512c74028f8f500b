package waitornot

import (
	"context"
	"fmt"
	"strings"

	"waitornot/internal/core"
	"waitornot/internal/event"
	"waitornot/internal/metrics"
	"waitornot/internal/shard"
)

// MergeMode selects how a KindSharded run folds shard models into the
// global model; it renders as "sync" / "async".
type MergeMode = shard.MergeMode

const (
	// MergeSync barriers every MergeCadence shard rounds: all shards
	// publish, the models are FedAvg-folded, every shard adopts.
	MergeSync = shard.MergeSync
	// MergeAsync merges on each shard's arrival, staleness-weighted;
	// only the arriving shard adopts — fast shards never wait.
	MergeAsync = shard.MergeAsync
)

// ShardRoundInfo is one shard-level aggregation round of a KindSharded
// run — the ShardRoundEnd event the round emitted: the wait policy it
// ran under, the shard's slowest-peer policy wait (MaxWaitMs) and
// cumulative wait (CumWaitMs), the round's decision-commit instant on
// the shared virtual clock (VirtualMs), and the mean number of updates
// admitted per peer.
type ShardRoundInfo = shard.RoundAgg

// ShardSummary is one shard's complete record — the engine's own: its
// slice of the fleet (Index, Peers, Seed; Samples is its summed
// training-set size, its FedAvg weight in every cross-shard merge), its
// ledger (Backend, Chain), its Rounds, the wait policy of each merge
// epoch (Policies; one entry when the adaptive controller is off), its
// last published model's FinalAccuracy on the held-out global
// evaluation set, its total policy wait CumWaitMs, and
// PeerRounds[peer][round-1], the inner per-peer record in the shape a
// flat decentralized run reports.
type ShardSummary = shard.ShardResult

// MergePoint records one cross-shard merge — the GlobalMerge event it
// emitted: the global model's Accuracy on the evaluation set at the
// fleet's cumulative policy wait (WaitMs, the trade-off study's time
// axis) and virtual instant (VirtualMs). Shard is the arriving shard
// for async merges, -1 for sync barriers; Included counts the shard
// models folded in.
type MergePoint = shard.Merge

// ShardedReport is the sharded hierarchy's output — the engine's result
// itself: the shared starting model's InitialAccuracy on the global
// evaluation set (the t=0 point) and the last merge's FinalAccuracy,
// per-shard round records and ledger footprints (Shards), the
// cross-shard merge trajectory (Merges), and HorizonMs, the virtual
// instant the last shard finished.
type ShardedReport shard.Result

// sharded lowers the public options to the engine's hierarchy config.
// The adaptive ladder comes from the experiment's policies (empty =
// DefaultPolicies for the smallest shard).
func (o Options) sharded(policies []Policy) shard.Config {
	cfg := shard.Config{
		Base:       o.decentralized(),
		Shards:     o.Shards,
		Backends:   o.ShardBackends,
		MergeEvery: o.MergeCadence,
		Mode:       o.MergeMode,
		Adaptive:   o.AdaptiveShards,
	}
	cfg.Base.EvalAllCombos = false // combo tables are a flat-run concern
	if o.AdaptiveShards {
		if len(policies) == 0 {
			policies = DefaultPolicies(o.clients() / o.shards())
		}
		cfg.Policies = make([]core.WaitPolicy, len(policies))
		for i, p := range policies {
			cfg.Policies[i] = p.internal()
		}
	}
	return cfg
}

// runShardedExperiment is the engine-facing sharded runner behind
// Experiment.Run.
func runShardedExperiment(ctx context.Context, opts Options, policies []Policy, sink event.Sink) (*ShardedReport, error) {
	cfg := opts.sharded(policies)
	cfg.Events = sink
	res, err := shard.Run(ctx, cfg)
	return (*ShardedReport)(res), err
}

// Headline reduces the report to the trade-off study's three headline
// metrics — the final global accuracy, and the mean per-shard-round
// policy wait and included-model count — making sharded cells directly
// comparable to (and sweepable alongside) the other kinds.
func (r *ShardedReport) Headline() (finalAccuracy, meanWaitMs, meanIncluded float64) {
	finalAccuracy = r.FinalAccuracy
	var wait, included float64
	n := 0
	for _, s := range r.Shards {
		for _, ra := range s.Rounds {
			wait += ra.MaxWaitMs
			included += ra.MeanIncluded
			n++
		}
	}
	if n > 0 {
		meanWaitMs = wait / float64(n)
		meanIncluded = included / float64(n)
	}
	return finalAccuracy, meanWaitMs, meanIncluded
}

// TimeToAccuracyMs returns the fleet's cumulative policy wait at which
// the global model first reached target — walking the merge trajectory
// from the t=0 initial point — or -1 if no merge got there. The wait
// axis (not the raw virtual clock) is the trade-off study's time axis,
// so sharded cells compare against flat policies on equal terms.
func (r *ShardedReport) TimeToAccuracyMs(target float64) float64 {
	if r.InitialAccuracy >= target {
		return 0
	}
	for _, m := range r.Merges {
		if m.Accuracy >= target {
			return m.WaitMs
		}
	}
	return -1
}

// Table renders every shard's round schedule.
func (r *ShardedReport) Table() string {
	tab := metrics.NewTable(
		"Sharded hierarchy: per-shard rounds on the shared virtual clock",
		"shard", "backend", "round", "policy", "wait (ms)", "cum wait (ms)", "t (ms)", "models")
	for _, s := range r.Shards {
		for _, ra := range s.Rounds {
			tab.Add(fmt.Sprint(s.Index), s.Backend, fmt.Sprint(ra.Round), ra.Policy,
				fmt.Sprintf("%.1f", ra.MaxWaitMs), fmt.Sprintf("%.1f", ra.CumWaitMs),
				fmt.Sprintf("%.0f", ra.VirtualMs), fmt.Sprintf("%.2f", ra.MeanIncluded))
		}
	}
	return tab.ASCII()
}

// MergeTable renders the cross-shard merge trajectory.
func (r *ShardedReport) MergeTable() string {
	tab := metrics.NewTable(
		"Cross-shard merges: global model on the fleet wait axis",
		"epoch", "mode", "shard", "models", "accuracy", "wait (ms)", "t (ms)")
	for _, m := range r.Merges {
		who := "all"
		if m.Shard >= 0 {
			who = fmt.Sprint(m.Shard)
		}
		tab.Add(fmt.Sprint(m.Epoch), m.Mode, who, fmt.Sprint(m.Included),
			metrics.Acc(m.Accuracy), fmt.Sprintf("%.1f", m.WaitMs), fmt.Sprintf("%.0f", m.VirtualMs))
	}
	return tab.ASCII()
}

// CSV renders the merge trajectory machine-readably.
func (r *ShardedReport) CSV() string {
	tab := metrics.NewTable("", "epoch", "mode", "shard", "included", "accuracy", "wait_ms", "virtual_ms")
	for _, m := range r.Merges {
		tab.Add(fmt.Sprint(m.Epoch), m.Mode, fmt.Sprint(m.Shard), fmt.Sprint(m.Included),
			fmt.Sprintf("%g", m.Accuracy), fmt.Sprintf("%g", m.WaitMs), fmt.Sprintf("%g", m.VirtualMs))
	}
	return tab.CSV()
}

// Summary renders a one-paragraph digest for CLI output.
func (r *ShardedReport) Summary() string {
	var b strings.Builder
	backends := make([]string, len(r.Shards))
	for i, s := range r.Shards {
		backends[i] = s.Backend
	}
	fmt.Fprintf(&b, "sharded hierarchy: %d shards (%s), %d merges, accuracy %s -> %s over %.1f virtual ms",
		len(r.Shards), strings.Join(backends, ", "), len(r.Merges),
		metrics.Acc(r.InitialAccuracy), metrics.Acc(r.FinalAccuracy), r.HorizonMs)
	return b.String()
}
