// Report-layer edge cases: Headline and the CSV/table renderers must
// stay NaN-free and well-formed on degenerate inputs — empty reports,
// empty cells, unreached targets — because sweep cells and CLI tables
// render whatever the engines hand them.
package waitornot_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"waitornot"
	"waitornot/internal/testutil"
)

func mkRound(round, included int, wait, acc float64) waitornot.RoundInfo {
	return waitornot.RoundInfo{Round: round, Included: included, WaitMs: wait, ChosenAccuracy: acc}
}

// TestHeadlineEmptyReport: a report of any kind with no peers (or
// peers, shards, without rounds) reduces to zero headlines and -1
// time-to-target, and renders its tables and CSV NaN-free.
func TestHeadlineEmptyReport(t *testing.T) {
	type report interface {
		Headline() (float64, float64, float64)
		TimeToAccuracyMs(float64) float64
	}
	type degenerate struct {
		name     string
		rep      report
		rendered string // every table and CSV the kind renders
	}
	var cases []degenerate
	for _, rep := range []*waitornot.DecentralizedReport{
		{},
		{PeerNames: []string{"A"}, ComboLabels: [][]string{{}}, ComboAccuracy: [][][]float64{{}},
			Rounds: [][]waitornot.RoundInfo{{}}},
	} {
		cases = append(cases, degenerate{"decentralized", rep, rep.PeerTable(0, "SimpleNN") + rep.Figure4("SimpleNN")})
	}
	for _, rep := range []*waitornot.AsyncReport{
		{},
		{PeerNames: []string{"A", "B"}, Rounds: [][]waitornot.AsyncRoundInfo{{}, {}}},
	} {
		cases = append(cases, degenerate{"async", rep,
			rep.Table() + rep.TimeToAccuracyTable(0.1, 0.5) + rep.Summary() + rep.CSV()})
	}
	for _, rep := range []*waitornot.ShardedReport{
		{},
		{Shards: []waitornot.ShardSummary{{Index: 0, Backend: "pow"}, {Index: 1, Backend: "pow"}}},
	} {
		cases = append(cases, degenerate{"sharded", rep, rep.Table() + rep.MergeTable() + rep.Summary() + rep.CSV()})
	}
	for _, tc := range cases {
		acc, wait, included := tc.rep.Headline()
		for _, v := range []float64{acc, wait, included} {
			if math.IsNaN(v) || v != 0 {
				t.Fatalf("%s: degenerate headline = %g %g %g, want zeros", tc.name, acc, wait, included)
			}
		}
		if got := tc.rep.TimeToAccuracyMs(0.1); got != -1 {
			t.Fatalf("%s: degenerate time-to-target = %g, want -1", tc.name, got)
		}
		if strings.Contains(tc.rendered, "NaN") {
			t.Fatalf("%s: degenerate report rendered NaN:\n%s", tc.name, tc.rendered)
		}
	}
	if got := strings.TrimSpace((&waitornot.AsyncReport{}).CSV()); got != "at_ms,mean_accuracy" {
		t.Fatalf("empty async CSV = %q, want the header alone", got)
	}
}

// TestTimeToAccuracyLatestPerPeer pins the barriered timeline's
// reduction on a subsampled run: B sits out round 2, so that round's
// participant mean (A alone, 0.8) and the fleet's latest-per-peer mean
// (A's 0.8 with B's round-1 0.6, 0.7) disagree. The timeline — and so
// time-to-target, like Headline — reads the latter.
func TestTimeToAccuracyLatestPerPeer(t *testing.T) {
	rep := &waitornot.DecentralizedReport{
		PeerNames: []string{"A", "B"},
		Rounds: [][]waitornot.RoundInfo{
			{mkRound(1, 2, 100, 0.2), mkRound(2, 1, 50, 0.8)},
			{mkRound(1, 2, 300, 0.6)},
		},
	}
	if got := rep.TimeToAccuracyMs(0.75); got != -1 {
		t.Fatalf("time to 0.75 = %g, want -1 (the fleet's latest-per-peer mean tops out at 0.7)", got)
	}
	if got := rep.TimeToAccuracyMs(0.65); got != 350 {
		t.Fatalf("time to 0.65 = %g, want 350 (round 2, after 300 + 50 ms)", got)
	}
	if got := rep.TimeToAccuracyMs(0.4); got != 300 {
		t.Fatalf("time to 0.4 = %g, want 300 (round 1's mean 0.4)", got)
	}
	acc, _, _ := rep.Headline()
	if want := (0.8 + 0.6) / 2; acc != want {
		t.Fatalf("headline accuracy = %g, want %g", acc, want)
	}
}

// TestHeadlineSkipsEmptyPeers: a peer without rounds is excluded from
// the means instead of dragging them to NaN.
func TestHeadlineSkipsEmptyPeers(t *testing.T) {
	rep := &waitornot.DecentralizedReport{
		PeerNames: []string{"A", "B"},
		Rounds: [][]waitornot.RoundInfo{
			{mkRound(1, 3, 100, 0.8)},
			{},
		},
	}
	acc, wait, included := rep.Headline()
	if acc != 0.8 || wait != 100 || included != 3 {
		t.Fatalf("headline = %g %g %g, want 0.8 100 3", acc, wait, included)
	}
}

// TestTimeToAccuracyCumulative: the synchronous time-to-target clock
// accumulates the slowest peer's wait per round and stops at the first
// qualifying round.
func TestTimeToAccuracyCumulative(t *testing.T) {
	rep := &waitornot.DecentralizedReport{
		PeerNames: []string{"A", "B"},
		Rounds: [][]waitornot.RoundInfo{
			{mkRound(1, 2, 100, 0.2), mkRound(2, 2, 150, 0.6)},
			{mkRound(1, 2, 300, 0.4), mkRound(2, 2, 50, 0.8)},
		},
	}
	// Round 1: mean acc 0.3, cumulative max wait 300.
	// Round 2: mean acc 0.7, cumulative 300 + 150 = 450.
	if got := rep.TimeToAccuracyMs(0.3); got != 300 {
		t.Fatalf("time to 0.3 = %g, want 300", got)
	}
	if got := rep.TimeToAccuracyMs(0.7); got != 450 {
		t.Fatalf("time to 0.7 = %g, want 450", got)
	}
	if got := rep.TimeToAccuracyMs(0.9); got != -1 {
		t.Fatalf("unreached target = %g, want -1", got)
	}
	if got := (&waitornot.DecentralizedReport{}).TimeToAccuracyMs(0.1); got != -1 {
		t.Fatalf("empty report time-to-acc = %g, want -1", got)
	}
}

// TestVanillaCSVWellFormed: the CSV renderer emits a header plus one
// row per client × mode × round, and an empty report renders to just
// the header without panicking.
func TestVanillaCSVWellFormed(t *testing.T) {
	rep := &waitornot.VanillaReport{
		ClientNames: []string{"A", "B"},
		Consider:    [][]float64{{0.5, 0.6}, {0.4, 0.7}},
		NotConsider: [][]float64{{0.3, 0.2}, {0.1, 0.9}},
	}
	lines := strings.Split(strings.TrimSpace(rep.CSV()), "\n")
	if len(lines) != 1+2*2*2 {
		t.Fatalf("CSV has %d lines, want 9:\n%s", len(lines), rep.CSV())
	}
	for _, line := range lines {
		if strings.Contains(line, "NaN") {
			t.Fatalf("CSV rendered NaN: %s", line)
		}
		if got := strings.Count(line, ","); got != 3 {
			t.Fatalf("CSV row has %d commas, want 3: %s", got, line)
		}
	}
	empty := &waitornot.VanillaReport{}
	if got := strings.TrimSpace(empty.CSV()); got != "client,mode,round,accuracy" {
		t.Fatalf("empty CSV = %q", got)
	}
}

// TestPeerTableOutOfRange: asking for a peer the report does not have
// degrades to an empty string rather than panicking.
func TestPeerTableOutOfRange(t *testing.T) {
	rep := &waitornot.DecentralizedReport{PeerNames: []string{"A"}}
	if got := rep.PeerTable(-1, "SimpleNN"); got != "" {
		t.Fatalf("PeerTable(-1) = %q", got)
	}
	if got := rep.PeerTable(5, "SimpleNN"); got != "" {
		t.Fatalf("PeerTable(5) = %q", got)
	}
}

// TestAsyncHeadlineDegenerate: an async report whose peers never
// aggregated falls back to the initial accuracies, NaN-free.
func TestAsyncHeadlineDegenerate(t *testing.T) {
	rep := &waitornot.AsyncReport{
		PeerNames:       []string{"A", "B"},
		InitialAccuracy: []float64{0.1, 0.3},
		Rounds:          [][]waitornot.AsyncRoundInfo{{}, {}},
	}
	acc, wait, included := rep.Headline()
	if math.Abs(acc-0.2) > 1e-12 || wait != 0 || included != 0 {
		t.Fatalf("degenerate async headline = %g %g %g, want 0.2 0 0", acc, wait, included)
	}
	if got := rep.TimeToAccuracyMs(0.15); got != 0 {
		t.Fatalf("time to 0.15 = %g, want 0 (mean initial 0.2 already qualifies)", got)
	}
	if got := rep.TimeToAccuracyMs(0.25); got != -1 {
		t.Fatalf("time to 0.25 = %g, want -1", got)
	}
}

// TestWaitTermsSumToWait: on every backend, with heterogeneous
// arrivals (lognormal compute, exponential network delay, a 3x
// straggler) and timeout policies, with CommitLatency on and off, each
// (peer, round) splits its wait into four terms >= 0 that sum to
// WaitMs, only a deadline idles, and without CommitLatency none of the
// wait is commit. Some rows idle at a deadline and some wait for a
// block, so the check is not vacuous.
func TestWaitTermsSumToWait(t *testing.T) {
	opts := waitornot.Options{
		Model:           waitornot.SimpleNN,
		Clients:         3,
		Rounds:          2,
		TrainPerClient:  40,
		SelectionSize:   20,
		TestPerClient:   20,
		LearningRate:    0.01,
		SkipComboTables: true,
		StragglerFactor: []float64{1, 1, 3},
		ComputeDist:     waitornot.Dist{Kind: waitornot.DistLogNormal, Mean: 1, Jitter: 0.8},
		NetworkDist:     waitornot.Dist{Kind: waitornot.DistExponential, Mean: 30},
	}
	policies := []waitornot.Policy{
		{Deadline: 50 * time.Millisecond},
		{K: 2, Deadline: 1500 * time.Millisecond},
	}
	rows, idle, commit := 0, 0, 0
	for _, seed := range []uint64{1, 2, 3} {
		for _, backend := range []string{"pow", "poa", "pbft", "instant"} {
			for _, policy := range policies {
				for _, latency := range []bool{false, true} {
					o := opts
					o.Seed, o.Backend, o.Policy, o.CommitLatency = seed, backend, policy, latency
					for _, peer := range testutil.Run(t, o).Decentralized.Rounds {
						for _, ri := range peer {
							terms := []float64{ri.ComputeMs, ri.PropagateMs, ri.CommitMs, ri.IdleMs}
							sum := ri.ComputeMs + ri.PropagateMs + ri.CommitMs + ri.IdleMs
							idleAtDeadline := ri.IdleMs == 0 || ri.WaitMs == float64(policy.Deadline)/float64(time.Millisecond)
							if slices.Min(terms) < 0 || math.Abs(sum-ri.WaitMs) > 1e-9*ri.WaitMs || !latency && ri.CommitMs != 0 || !idleAtDeadline {
								t.Fatalf("seed %d %s %s latency %v: terms %v sum to %g, wait %g", seed, backend, policy.Name(), latency, terms, sum, ri.WaitMs)
							}
							rows++
							if ri.IdleMs > 0 {
								idle++
							}
							if ri.CommitMs > 0 {
								commit++
							}
						}
					}
				}
			}
		}
	}
	if idle == 0 || commit == 0 {
		t.Fatalf("of %d rows, %d idled and %d waited for a block: the terms went unchecked", rows, idle, commit)
	}
}
