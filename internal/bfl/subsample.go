// Client subsampling: the cross-device regime. With ClientFraction set,
// the experiment models a fleet of cfg.Peers registered devices of which
// only K = round(fraction*Peers) train per round. The per-round
// participant sets are drawn once at setup from a dedicated substream of
// the root seed, so the schedule is a pure function of the configuration
// — identical at any Parallelism — and only peers that ever participate
// are materialized, keeping setup cost proportional to the active cohort
// rather than to the registered fleet.
package bfl

import (
	"math"
	"sort"

	"waitornot/internal/xrand"
)

// maxSubsampleCombo caps the personalized combination search in the
// cross-device regime: a round that keeps more updates than this adopts
// the plain sample-weighted FedAvg (see core.Aggregator.MaxComboPeers).
// The paper's per-pair tables are a 3-peer cross-silo artifact; at K=32
// the pair enumeration alone is ~500 selection-set evaluations per peer
// per round.
const maxSubsampleCombo = 8

// subsampleK resolves ClientFraction to a per-round participant count.
func subsampleK(fraction float64, peers int) int {
	k := int(math.Round(fraction * float64(peers)))
	if k < 1 {
		k = 1
	}
	if k > peers {
		k = peers
	}
	return k
}

// sampleK draws k distinct fleet indices from [0, n) using Floyd's
// algorithm (k draws regardless of n) and returns them ascending.
func sampleK(rng *xrand.RNG, n, k int) []int {
	chosen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t] {
			t = j
		}
		chosen[t] = true
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// drawParticipants pre-draws every round's K-of-N participant set from
// the root's "client-subsample" substream. out[round] is 1-indexed.
func drawParticipants(root *xrand.RNG, peers, k, rounds int) [][]int {
	rng := root.Derive("client-subsample")
	out := make([][]int, rounds+1)
	for r := 1; r <= rounds; r++ {
		out[r] = sampleK(rng, peers, k)
	}
	return out
}

// cohort resolves a participant schedule (fleet indices, 1-indexed by
// round) into the cohort NewWorld materializes: the ascending union
// of every round's participants, and the same schedule re-addressed by
// slot — a peer's index in that union, and thus in the ledger's views
// and sealers.
func cohort(parts [][]int) (active []int, slots [][]int) {
	seen := make(map[int]bool)
	for _, ps := range parts {
		for _, gi := range ps {
			if !seen[gi] {
				seen[gi] = true
				active = append(active, gi)
			}
		}
	}
	sort.Ints(active)
	slotOf := make(map[int]int, len(active))
	for s, gi := range active {
		slotOf[gi] = s
	}
	slots = make([][]int, len(parts))
	for r, ps := range parts {
		if ps == nil {
			continue
		}
		slots[r] = make([]int, len(ps))
		for i, gi := range ps {
			slots[r][i] = slotOf[gi] // ps ascending => slots ascending
		}
	}
	return active, slots
}
