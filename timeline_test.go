// One property over the three report kinds' fleet-accuracy timelines:
// on random reports — ragged, subsampled decentralized ones included —
// Headline's accuracy is the timeline's last point bit-for-bit,
// TimeToAccuracyMs is the first point at or above the target, and the
// points never move backwards in time.
package waitornot

import (
	"math"
	"testing"

	"waitornot/internal/xrand"
)

// timelined is what every run report kind exposes on the one axis.
type timelined interface {
	Headline() (float64, float64, float64)
	TimeToAccuracyMs(float64) float64
	timeline() timeline
}

// randomDecentralized draws a barriered report whose peers each sit out
// a round with probability skip (skip 0 = the classic every-peer run).
func randomDecentralized(rng *xrand.RNG, peers, rounds int, skip float64) *DecentralizedReport {
	r := &DecentralizedReport{Rounds: make([][]RoundInfo, peers)}
	for rd := 1; rd <= rounds; rd++ {
		for p := range r.Rounds {
			if rng.Bool(skip) {
				continue
			}
			r.Rounds[p] = append(r.Rounds[p], RoundInfo{Round: rd, Included: 1 + rng.Intn(peers),
				WaitMs: float64(rng.Intn(5)) * 100 * rng.Float64(), ChosenAccuracy: rng.Float64()})
		}
	}
	return r
}

// randomAsync draws an async report whose peers complete different
// numbers of aggregations, some on shared firing instants.
func randomAsync(rng *xrand.RNG, peers, rounds int) *AsyncReport {
	r := &AsyncReport{PeerNames: make([]string, peers), InitialAccuracy: make([]float64, peers),
		Rounds: make([][]AsyncRoundInfo, peers)}
	for p := range r.Rounds {
		r.InitialAccuracy[p] = rng.Float64() / 4
		at, n := 0.0, rng.Intn(rounds+1)
		for rd := 1; rd <= n; rd++ {
			at += float64(rng.Intn(3)) * 50
			r.Rounds[p] = append(r.Rounds[p], AsyncRoundInfo{Round: rd, FiredMs: at, WaitMs: rng.Float64() * 200,
				Included: 1 + rng.Intn(peers), Accuracy: rng.Float64()})
		}
	}
	return r
}

// randomSharded draws a sharded report: per-shard rounds and a merge
// trajectory on the non-decreasing fleet wait axis.
func randomSharded(rng *xrand.RNG, shards, merges int) *ShardedReport {
	r := &ShardedReport{InitialAccuracy: rng.Float64() / 4, Shards: make([]ShardSummary, shards)}
	for i := range r.Shards {
		n := 1 + rng.Intn(4)
		for rd := 1; rd <= n; rd++ {
			r.Shards[i].Rounds = append(r.Shards[i].Rounds, ShardRoundInfo{Round: rd,
				MaxWaitMs: rng.Float64() * 300, MeanIncluded: 1 + rng.Float64()})
		}
	}
	wait := 0.0
	for e := 1; e <= merges; e++ {
		wait += float64(rng.Intn(2)) * rng.Float64() * 400
		r.Merges = append(r.Merges, MergePoint{Epoch: e, WaitMs: wait, Accuracy: rng.Float64()})
		r.FinalAccuracy = r.Merges[len(r.Merges)-1].Accuracy
	}
	return r
}

func TestTimelineProperties(t *testing.T) {
	rng := xrand.New(25)
	for trial := 0; trial < 300; trial++ {
		peers, rounds := 1+rng.Intn(5), rng.Intn(7)
		reports := []struct {
			kind string
			rep  timelined
		}{
			{"decentralized", randomDecentralized(rng, peers, rounds, 0)},
			{"decentralized-ragged", randomDecentralized(rng, peers, rounds, 0.5)},
			{"async", randomAsync(rng, peers, rounds)},
			{"sharded", randomSharded(rng, 1+rng.Intn(3), rounds)},
			{"decentralized-empty", &DecentralizedReport{}},
			{"async-empty", &AsyncReport{}},
		}
		for _, r := range reports {
			kind, rep := r.kind, r.rep
			pts := rep.timeline()
			acc, _, _ := rep.Headline()
			want := 0.0
			if len(pts) > 0 {
				want = pts[len(pts)-1].MeanAccuracy
			}
			if math.Float64bits(acc) != math.Float64bits(want) {
				t.Fatalf("trial %d %s: Headline accuracy %v != timeline's last point %v", trial, kind, acc, want)
			}
			targets := []float64{0, 1.1, rng.Float64()}
			for i, pt := range pts {
				if i > 0 && pt.AtMs < pts[i-1].AtMs {
					t.Fatalf("trial %d %s: timeline went backwards at point %d: %+v", trial, kind, i, pts)
				}
				if math.IsNaN(pt.MeanAccuracy) {
					t.Fatalf("trial %d %s: NaN point %d: %+v", trial, kind, i, pts)
				}
				targets = append(targets, pt.MeanAccuracy)
			}
			for _, target := range targets {
				first := -1.0
				for _, pt := range pts {
					if pt.MeanAccuracy >= target {
						first = pt.AtMs
						break
					}
				}
				if got := rep.TimeToAccuracyMs(target); got != first {
					t.Fatalf("trial %d %s: TimeToAccuracyMs(%v) = %v, first point at or above it is at %v", trial, kind, target, got, first)
				}
			}
		}
	}
}

// TestDecentralizedTimelineKeepsHeadline: the barriered timeline's last
// point is, bit-for-bit, the mean over peers with a record of each
// one's last adopted accuracy summed in peer order — the rule Headline
// has always reported — subsampled runs included; on classic runs
// every point is that round's participant mean, the rule time-to-target
// has always used.
func TestDecentralizedTimelineKeepsHeadline(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 200; trial++ {
		peers, rounds := 1+rng.Intn(6), 1+rng.Intn(6)
		skip := 0.0
		if trial%2 == 1 {
			skip = 0.6
		}
		rep := randomDecentralized(rng, peers, rounds, skip)
		var sum float64
		n := 0
		for _, rs := range rep.Rounds {
			if len(rs) > 0 {
				sum += rs[len(rs)-1].ChosenAccuracy
				n++
			}
		}
		pts := rep.timeline()
		if n == 0 {
			if len(pts) != 0 {
				t.Fatalf("trial %d: no records, timeline %+v", trial, pts)
			}
			continue
		}
		if got, want := pts[len(pts)-1].MeanAccuracy, sum/float64(n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: last point %v != mean of each peer's last record %v", trial, got, want)
		}
		if skip > 0 {
			continue
		}
		for rd, pt := range pts {
			var s float64
			for _, rs := range rep.Rounds {
				s += rs[rd].ChosenAccuracy
			}
			if want := s / float64(peers); math.Float64bits(pt.MeanAccuracy) != math.Float64bits(want) {
				t.Fatalf("trial %d round %d: point %v != participant mean %v", trial, rd+1, pt.MeanAccuracy, want)
			}
		}
	}
}
