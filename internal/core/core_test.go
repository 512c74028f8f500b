package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"waitornot/internal/fl"
	"waitornot/internal/xrand"
)

func TestWaitPolicies(t *testing.T) {
	cases := []struct {
		name     string
		policy   WaitPolicy
		received int
		expected int
		elapsed  time.Duration
		want     bool
	}{
		{"wait-all not done", WaitAll{}, 2, 3, time.Hour, false},
		{"wait-all done", WaitAll{}, 3, 3, 0, true},
		{"wait-all overshoot", WaitAll{}, 4, 3, 0, true},
		{"first-2 one", FirstK{K: 2}, 1, 3, time.Hour, false},
		{"first-2 two", FirstK{K: 2}, 2, 3, 0, true},
		{"first-k clamps to expected", FirstK{K: 9}, 3, 3, 0, true},
		{"timeout waits", Timeout{D: time.Second}, 1, 3, 500 * time.Millisecond, false},
		{"timeout fires", Timeout{D: time.Second}, 1, 3, time.Second, true},
		{"timeout needs one update", Timeout{D: time.Second}, 0, 3, time.Hour, false},
		{"timeout all arrived", Timeout{D: time.Hour}, 3, 3, 0, true},
		{"k-or-timeout by k", KOrTimeout{K: 2, D: time.Hour}, 2, 3, 0, true},
		{"k-or-timeout by time", KOrTimeout{K: 3, D: time.Second}, 1, 3, 2 * time.Second, true},
		{"k-or-timeout neither", KOrTimeout{K: 3, D: time.Hour}, 1, 3, time.Second, false},
	}
	for _, tc := range cases {
		if got := tc.policy.Ready(tc.received, tc.expected, tc.elapsed); got != tc.want {
			t.Errorf("%s: Ready = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []WaitPolicy{WaitAll{}, FirstK{K: 2}, Timeout{D: time.Second}, KOrTimeout{K: 2, D: time.Second}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func upd(name string, w ...float32) *fl.Update {
	return &fl.Update{Client: name, Round: 1, Weights: w, NumSamples: 10}
}

// scoreByFirstWeight scores a weight vector by its first element —
// a transparent stand-in for selection-set accuracy.
func scoreByFirstWeight(w []float32) float64 { return float64(w[0]) }

func TestFilterKeepsAboveThreshold(t *testing.T) {
	f := Filter{MinAccuracy: 0.5}
	// Values exactly representable in float32 so scores compare cleanly.
	ups := []*fl.Update{upd("A", 0.75), upd("B", 0.25), upd("C", 0.625)}
	res := f.Apply("A", ups, scoreByFirstWeight)
	if len(res.Kept) != 2 || len(res.Rejected) != 1 {
		t.Fatalf("kept %d rejected %d", len(res.Kept), len(res.Rejected))
	}
	if res.Rejected[0].Client != "B" {
		t.Fatalf("rejected %s", res.Rejected[0].Client)
	}
	if res.Scores["B"] != 0.25 {
		t.Fatalf("scores = %v", res.Scores)
	}
}

func TestFilterAlwaysKeepsSelf(t *testing.T) {
	f := Filter{MinAccuracy: 0.99}
	ups := []*fl.Update{upd("A", 0.1), upd("B", 0.05)}
	res := f.Apply("A", ups, scoreByFirstWeight)
	found := false
	for _, u := range res.Kept {
		if u.Client == "A" {
			found = true
		}
	}
	if !found {
		t.Fatal("self update must survive filtering")
	}
}

func TestFilterMaxBelowBest(t *testing.T) {
	f := Filter{MaxBelowBest: 0.1}
	ups := []*fl.Update{upd("A", 0.9), upd("B", 0.85), upd("C", 0.5)}
	res := f.Apply("A", ups, scoreByFirstWeight)
	names := make([]string, 0, len(res.Kept))
	for _, u := range res.Kept {
		names = append(names, u.Client)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"A", "B"}) {
		t.Fatalf("kept %v, want A and B", names)
	}
}

func TestFilterZeroValueKeepsAll(t *testing.T) {
	// nil evaluator: a filter that cannot reject must not score.
	res := Filter{}.Apply("A", []*fl.Update{upd("A", 0.0), upd("B", 0.0)}, nil)
	if len(res.Kept) != 2 || len(res.Rejected) != 0 || res.Scores != nil {
		t.Fatalf("zero filter must keep everything and score nothing: %+v", res)
	}
}

// TestDecideEvaluatorCalls counts selection-set evaluations per
// decision (each is a forward pass over the selection set): only an
// armed filter pays one per update on top of the combination search,
// and its score for the peer's own update stands in for the {self}
// combo's, so that combo is not scored twice.
func TestDecideEvaluatorCalls(t *testing.T) {
	fleet := func(k int) []*fl.Update {
		ups := make([]*fl.Update, k)
		for i := range ups {
			ups[i] = upd(string(rune('A'+i)), 0.5+float32(i)/64)
		}
		return ups
	}
	poisoned := fleet(3)
	poisoned[1] = upd("B", 0.125) // more than 0.15 under C's 0.53
	cases := []struct {
		name     string
		filter   Filter
		updates  []*fl.Update
		calls    int
		rejected []string
		combos   int
	}{
		{"zero filter, K=3: the paper's five combos", Filter{}, fleet(3), len(fl.PaperCombos(3, 0)), nil, 5},
		{"zero filter, K=9 past MaxComboPeers: FedAvg of all", Filter{}, fleet(9), 1, nil, 0},
		{"armed filter, nothing rejected", Filter{MaxBelowBest: 0.15}, fleet(3), 3 + len(fl.PaperCombos(3, 0)) - 1, nil, 5},
		{"armed filter, B rejected", Filter{MaxBelowBest: 0.15}, poisoned, 3 + len(fl.PaperCombos(2, 0)) - 1, []string{"B"}, 2},
	}
	for _, tc := range cases {
		calls := 0
		eval := func(w []float32) float64 { calls++; return scoreByFirstWeight(w) }
		agg := NewAggregator("A", WaitAll{}, tc.filter, eval, xrand.New(1))
		agg.MaxComboPeers = 8
		d, err := agg.Decide(1, tc.updates, 0, len(tc.updates))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calls != tc.calls {
			t.Errorf("%s: %d evaluator calls, want %d", tc.name, calls, tc.calls)
		}
		if !reflect.DeepEqual(d.RejectedClients, tc.rejected) {
			t.Errorf("%s: rejected %v, want %v", tc.name, d.RejectedClients, tc.rejected)
		}
		if len(d.ComboResults) != tc.combos {
			t.Fatalf("%s: %d combo rows, want %d", tc.name, len(d.ComboResults), tc.combos)
		}
		if tc.combos > 0 {
			self := d.ComboResults[0]
			if !reflect.DeepEqual(self.Combo, fl.Combo{0}) || self.Accuracy != scoreByFirstWeight(tc.updates[0].Weights) {
				t.Errorf("%s: first row %v scores %v, want {A} at A's own score", tc.name, self.Combo, self.Accuracy)
			}
		}
	}
}

func TestAggregatorDecidePicksBestCombo(t *testing.T) {
	// Three updates; scoring = first weight of the FedAvg (equal sample
	// counts, so the average of firsts). Best single is C (0.9); best
	// combo overall is {C} from A's PaperCombos? A's combos: {A}, {A,B},
	// {A,C}, {B,C}, {A,B,C}. Averages: 0.1, 0.3, 0.5, 0.7, 0.5. Best is
	// {B,C} = 0.7.
	agg := NewAggregator("A", WaitAll{}, Filter{}, scoreByFirstWeight, xrand.New(1))
	ups := []*fl.Update{upd("A", 0.1), upd("B", 0.5), upd("C", 0.9)}
	d, err := agg.Decide(1, ups, time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ComboResults) != 5 {
		t.Fatalf("%d combo results, want 5 paper rows", len(d.ComboResults))
	}
	if got := d.Chosen.Accuracy; got < 0.699 || got > 0.701 {
		t.Fatalf("chosen accuracy %v, want 0.7 ({B,C})", got)
	}
	if d.Waited != 3 || d.Expected != 3 || d.WaitTime != time.Second {
		t.Fatalf("decision metadata wrong: %+v", d)
	}
}

func TestAggregatorDecideDeterministicOrder(t *testing.T) {
	// Arrival order must not affect the decision.
	agg := NewAggregator("B", WaitAll{}, Filter{}, scoreByFirstWeight, xrand.New(1))
	ups1 := []*fl.Update{upd("A", 0.2), upd("B", 0.4), upd("C", 0.6)}
	ups2 := []*fl.Update{upd("C", 0.6), upd("A", 0.2), upd("B", 0.4)}
	d1, err := agg.Decide(1, ups1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := agg.Decide(1, ups2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Chosen.Accuracy != d2.Chosen.Accuracy {
		t.Fatal("decision depends on arrival order")
	}
	if !reflect.DeepEqual(d1.Chosen.Combo, d2.Chosen.Combo) {
		t.Fatal("chosen combo depends on arrival order")
	}
}

func TestAggregatorFiltersAbnormal(t *testing.T) {
	agg := NewAggregator("A", WaitAll{}, Filter{MinAccuracy: 0.3}, scoreByFirstWeight, xrand.New(1))
	ups := []*fl.Update{upd("A", 0.5), upd("B", 0.05), upd("C", 0.6)}
	d, err := agg.Decide(1, ups, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.RejectedClients, []string{"B"}) {
		t.Fatalf("rejected %v, want [B]", d.RejectedClients)
	}
	// Two kept updates -> PaperCombos(2, selfIdx) = 2 combos.
	if len(d.ComboResults) != 2 {
		t.Fatalf("%d combos after filtering, want 2", len(d.ComboResults))
	}
}

func TestAggregatorErrsWithoutOwnUpdate(t *testing.T) {
	agg := NewAggregator("Z", WaitAll{}, Filter{}, scoreByFirstWeight, xrand.New(1))
	if _, err := agg.Decide(1, []*fl.Update{upd("A", 0.5)}, 0, 3); err == nil {
		t.Fatal("expected error when self update missing")
	}
	if _, err := agg.Decide(1, nil, 0, 3); err == nil {
		t.Fatal("expected error on empty updates")
	}
}

func TestAggregatorTieBreakIsSeeded(t *testing.T) {
	// All updates identical -> every combo scores the same -> the rng
	// decides; the same seed must give the same choice.
	pick := func(seed uint64) string {
		agg := NewAggregator("A", WaitAll{}, Filter{}, scoreByFirstWeight, xrand.New(seed))
		ups := []*fl.Update{upd("A", 0.5), upd("B", 0.5), upd("C", 0.5)}
		d, err := agg.Decide(1, ups, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return d.Chosen.Combo.Label([]string{"A", "B", "C"})
	}
	if pick(7) != pick(7) {
		t.Fatal("tie-break not deterministic for equal seeds")
	}
	// Across many seeds at least two distinct outcomes should appear.
	seen := map[string]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		seen[pick(seed)] = true
	}
	if len(seen) < 2 {
		t.Fatal("tie-break never varies; random selection is not happening")
	}
}
