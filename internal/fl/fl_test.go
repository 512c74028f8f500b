package fl

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"waitornot/internal/dataset"
	"waitornot/internal/nn"
	"waitornot/internal/xrand"
)

func upd(name string, samples int, weights ...float32) *Update {
	return &Update{Client: name, Round: 1, Weights: weights, NumSamples: samples}
}

func TestFedAvgKnownValues(t *testing.T) {
	got, err := FedAvg([]*Update{
		upd("A", 1, 0, 0),
		upd("B", 3, 4, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted: (1*0 + 3*4)/4 = 3, (1*0 + 3*8)/4 = 6.
	if got[0] != 3 || got[1] != 6 {
		t.Fatalf("FedAvg = %v, want [3 6]", got)
	}
}

// The async engines' shared rule: an update one half-life old counts
// half, and when every factor underflows the weights fall back to
// sample counts instead of an all-zero (unnormalizable) vector.
func TestStalenessWeights(t *testing.T) {
	ups := []*Update{upd("A", 10), upd("B", 30)}
	if got := StalenessWeights(ups, []float64{0, 200}, 100); got[0] != 10 || got[1] != 7.5 {
		t.Fatalf("weights = %v, want [10 7.5]", got)
	}
	if got := StalenessWeights(ups, []float64{1e9, 1e9}, 1); got[0] != 10 || got[1] != 30 {
		t.Fatalf("underflowed weights = %v, want the sample counts [10 30]", got)
	}
}

func TestFedAvgSingleIdentity(t *testing.T) {
	w := []float32{1.5, -2, 0.25}
	got, err := FedAvg([]*Update{upd("A", 7, w...)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("single-update FedAvg must be identity, got %v", got)
		}
	}
}

func TestFedAvgErrors(t *testing.T) {
	if _, err := FedAvg(nil); err == nil {
		t.Error("empty updates must error")
	}
	if _, err := FedAvg([]*Update{upd("A", 1, 1, 2), upd("B", 1, 1)}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := FedAvg([]*Update{upd("A", 0, 1)}); err == nil {
		t.Error("zero sample count must error")
	}
	if _, err := FedAvg([]*Update{upd("A", -5, 1)}); err == nil {
		t.Error("negative sample count must error")
	}
}

func TestFedAvgPermutationInvariance(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		ups := make([]*Update, 4)
		for i := range ups {
			w := make([]float32, 6)
			for j := range w {
				w[j] = float32(rng.NormFloat64())
			}
			ups[i] = upd(ClientName(i), 1+rng.Intn(100), w...)
		}
		a, err := FedAvg(ups)
		if err != nil {
			return false
		}
		perm := rng.Perm(4)
		shuffled := make([]*Update, 4)
		for i, p := range perm {
			shuffled[i] = ups[p]
		}
		b, err := FedAvg(shuffled)
		if err != nil {
			return false
		}
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFedAvgConvexCombination(t *testing.T) {
	// The average of identical vectors is that vector; the average of
	// bounded vectors stays within the bounds.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		w := make([]float32, 5)
		for j := range w {
			w[j] = float32(rng.NormFloat64())
		}
		ups := []*Update{upd("A", 3, w...), upd("B", 9, w...), upd("C", 1, w...)}
		avg, err := FedAvg(ups)
		if err != nil {
			return false
		}
		for i := range w {
			if math.Abs(float64(avg[i]-w[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCombosTableRows(t *testing.T) {
	// Client A (index 0) of 3: exactly the five rows of Table II.
	got := PaperCombos(3, 0)
	want := []Combo{{0}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PaperCombos(3,0) = %v, want %v", got, want)
	}
	// Client B (index 1): Table III rows {B}, {B,A}, {B,C}, {A,C}, {A,B,C}
	// — as index sets: {1}, {0,1}, {1,2}, {0,2}, {0,1,2}.
	got = PaperCombos(3, 1)
	want = []Combo{{1}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PaperCombos(3,1) = %v, want %v", got, want)
	}
}

func TestPaperCombosTwoClients(t *testing.T) {
	got := PaperCombos(2, 1)
	want := []Combo{{1}, {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PaperCombos(2,1) = %v, want %v", got, want)
	}
}

func TestPaperCombosPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PaperCombos(3, 3)
}

func TestAllCombosCountAndOrder(t *testing.T) {
	got := AllCombos(3)
	if len(got) != 7 {
		t.Fatalf("AllCombos(3) has %d entries, want 7", len(got))
	}
	// Sorted by size then lexicographic.
	want := []Combo{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AllCombos(3) = %v", got)
	}
}

func TestComboLabelAndPick(t *testing.T) {
	names := []string{"A", "B", "C"}
	c := Combo{0, 2}
	if l := c.Label(names); l != "A,C" {
		t.Fatalf("Label = %q", l)
	}
	ups := []*Update{upd("A", 1, 1), upd("B", 1, 2), upd("C", 1, 3)}
	picked := c.Pick(ups)
	if len(picked) != 2 || picked[0].Client != "A" || picked[1].Client != "C" {
		t.Fatalf("Pick = %v", picked)
	}
}

func TestEvaluateCombosAndBest(t *testing.T) {
	ups := []*Update{upd("A", 1, 0), upd("B", 1, 10), upd("C", 1, 20)}
	// Score = the aggregated scalar itself: best combo is {C} alone... but
	// BestCombo must consider all given combos.
	eval := func(_ Key, w func() []float32) float64 { return float64(w()[0]) }
	results, err := new(Scratch).EvaluateCombos(ups, AllCombos(3), eval, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d results", len(results))
	}
	best := BestCombo(results)
	if !reflect.DeepEqual(best.Combo, Combo{2}) {
		t.Fatalf("best combo = %v, want {2}", best.Combo)
	}
	if best.Accuracy != 20 {
		t.Fatalf("best accuracy = %v", best.Accuracy)
	}
}

func TestBestComboTieBreaksToEarliest(t *testing.T) {
	results := []ComboResult{
		{Combo: Combo{0}, Accuracy: 0.5},
		{Combo: Combo{1}, Accuracy: 0.5},
	}
	if got := BestCombo(results); !reflect.DeepEqual(got.Combo, Combo{0}) {
		t.Fatalf("tie should keep earliest, got %v", got.Combo)
	}
}

func TestDefaultHyperKnownModels(t *testing.T) {
	for _, id := range []nn.ModelID{nn.ModelSimpleNN, nn.ModelEffNetSim} {
		h := DefaultHyper(id)
		if h.LR <= 0 || h.BatchSize <= 0 || h.LocalEpochs != 5 {
			t.Fatalf("%v hyper looks wrong: %+v (paper trains 5 local epochs)", id, h)
		}
	}
}

func TestDefaultHyperPanicsUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultHyper(nn.ModelID(99))
}

func TestClientName(t *testing.T) {
	if ClientName(0) != "A" || ClientName(2) != "C" {
		t.Fatal("first clients must be A..Z")
	}
	if ClientName(30) != "P30" {
		t.Fatalf("overflow name = %q", ClientName(30))
	}
}

func TestClientLocalTrainProducesUpdate(t *testing.T) {
	root := xrand.New(7)
	cfg := dataset.DefaultConfig()
	train := dataset.Generate(cfg, 60, root.Derive("train"))
	sel := dataset.Generate(cfg, 30, root.Derive("sel"))
	test := dataset.Generate(cfg, 30, root.Derive("test"))
	model := nn.NewSimpleNN(root.Derive("init"))
	c := NewClient("A", model, train, sel, test, DefaultHyper(nn.ModelSimpleNN), root.Derive("client"))

	before := model.WeightVector()
	u := c.LocalTrain(1)
	if u.Client != "A" || u.Round != 1 || u.NumSamples != 60 {
		t.Fatalf("update metadata wrong: %+v", u)
	}
	if len(u.Weights) != len(before) {
		t.Fatalf("update has %d weights", len(u.Weights))
	}
	same := true
	for i := range before {
		if before[i] != u.Weights[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("training did not change weights")
	}
	// Evaluators stay in [0,1].
	if acc := c.SelectionEvaluator()(Key{}, Vector(u.Weights)); acc < 0 || acc > 1 {
		t.Fatalf("selection accuracy %v", acc)
	}
}

func TestNewAccuracyEvaluatorBounds(t *testing.T) {
	root := xrand.New(11)
	s := dataset.Generate(dataset.DefaultConfig(), 40, root)
	eval := NewScratch(nn.ModelSimpleNN).Evaluator(s)
	w := nn.NewSimpleNN(root.Derive("m")).WeightVector()
	if acc := eval(Key{}, Vector(w)); acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
}

// TestNewAccuracyEvaluatorScratchUnread: a Scratch's nil-built models
// score every weight vector exactly as a model built from a seeded RNG
// does, because each call overwrites the one it borrows.
func TestNewAccuracyEvaluatorScratchUnread(t *testing.T) {
	root := xrand.New(12)
	s := dataset.Generate(dataset.DefaultConfig(), 64, root)
	for _, id := range []nn.ModelID{nn.ModelSimpleNN, nn.ModelEffNetSim} {
		eval := NewScratch(id).Evaluator(s)
		seeded := id.Build(xrand.New(0))
		for _, label := range []string{"a", "b"} {
			w := id.Build(root.Derive(label)).WeightVector()
			if err := seeded.SetWeightVector(w); err != nil {
				t.Fatal(err)
			}
			if got, want := eval(Key{}, Vector(w)), nn.Evaluate(seeded, s.X, s.Y, 64); got != want {
				t.Fatalf("%s %s: nil-built scratch scores %v, seeded scratch %v", id, label, got, want)
			}
		}
	}
}

// TestEvaluateCombosWithMatchesSequential: the concurrent combination
// search must produce results identical to the sequential one, in the
// same order, for any worker count, through one Scratch.
func TestEvaluateCombosWithMatchesSequential(t *testing.T) {
	ups := []*Update{
		upd("A", 1, 1, 0), upd("B", 2, 0, 1),
		upd("C", 3, 2, 2), upd("D", 1, 3, 1),
	}
	combos := AllCombos(4)
	eval := func(_ Key, w func() []float32) float64 { return float64(w()[0])*10 + float64(w()[1]) }
	sc := new(Scratch)
	seq, err := sc.EvaluateCombos(ups, combos, eval, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := sc.EvaluateCombos(ups, combos, eval, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d: parallel combo results differ from sequential", workers)
		}
	}
	if n := len(sc.avgs.free); n > 16 {
		t.Fatalf("%d averagers built for at most 16 concurrent combinations", n)
	}
}

func TestEvaluateCombosWithErrors(t *testing.T) {
	ups := []*Update{upd("A", 1, 1, 0), upd("B", 0, 0, 1)} // B invalid
	eval := func(Key, func() []float32) float64 { return 0 }
	for _, workers := range []int{1, 2} {
		if _, err := new(Scratch).EvaluateCombos(ups, AllCombos(2), eval, workers); err == nil {
			t.Fatalf("workers=%d: invalid update not surfaced by the search", workers)
		}
	}
}

// TestScratchLendsAtMostN: n goroutines interleaving trainings and
// scores through one Scratch build at most n models and at most n
// trainers; every score equals a sequential pass's over a fresh
// Scratch, which builds one model, and every training equals, bit for
// bit, a fresh client's LocalTrain on a model of its own. The clients'
// shards differ in size and their Hyper in learning rate, so a trainer
// moves between shapes and settings; one left with a previous
// training's momentum fails the comparison.
func TestScratchLendsAtMostN(t *testing.T) {
	root := xrand.New(2)
	sets := []*dataset.Set{
		dataset.Generate(dataset.DefaultConfig(), 40, root.Derive("a")),
		dataset.Generate(dataset.DefaultConfig(), 40, root.Derive("b")),
	}
	var weights [][]float32
	for _, label := range []string{"w0", "w1", "w2"} {
		weights = append(weights, nn.ModelSimpleNN.Build(root.Derive(label)).WeightVector())
	}
	seqScratch := NewScratch(nn.ModelSimpleNN)
	want := make([][]float64, len(sets))
	for s, set := range sets {
		for _, w := range weights {
			want[s] = append(want[s], seqScratch.Evaluator(set)(Key{}, Vector(w)))
		}
	}
	if n := len(seqScratch.models.free); n != 1 {
		t.Fatalf("a sequential pass built %d models, want 1", n)
	}

	hyper := DefaultHyper(nn.ModelSimpleNN)
	fast := hyper
	fast.LR *= 4
	client := func(name string, samples int, h Hyper) *Client {
		return NewClient(name, nil, dataset.Generate(dataset.DefaultConfig(), samples, root.Derive("train-"+name)),
			sets[0], sets[1], h, root.Derive("stream-"+name))
	}
	clients := []*Client{client("A", 64, hyper), client("B", 96, fast)}
	const rounds = 2
	wantUp := make([][][]*Update, len(clients)) // [client][weights][round-1]
	for c, cl := range clients {
		for _, w := range weights {
			var ups []*Update
			for round := 1; round <= rounds; round++ {
				own := NewClient(cl.Name, nn.ModelSimpleNN.Build(nil), cl.Train, cl.Selection, cl.Test, cl.Hyper, root.Derive("stream-"+cl.Name))
				if err := own.Model.SetWeightVector(w); err != nil {
					t.Fatal(err)
				}
				ups = append(ups, own.LocalTrain(round))
			}
			wantUp[c] = append(wantUp[c], ups)
		}
	}

	// Each goroutine walks the same operations from its own offset, so
	// trainings and scores overlap in every mix.
	const n = 4
	sc := NewScratch(nn.ModelSimpleNN)
	var ops []func(g int)
	for s, set := range sets {
		for k, w := range weights {
			ops = append(ops, func(g int) {
				if got := sc.Evaluator(set)(Key{}, Vector(w)); got != want[s][k] {
					t.Errorf("goroutine %d set %d weights %d: scored %v, sequential pass %v", g, s, k, got, want[s][k])
				}
			})
		}
	}
	for c, cl := range clients {
		for k, w := range weights {
			for round := 1; round <= rounds; round++ {
				ops = append(ops, func(g int) {
					got, err := sc.Train(cl, w, round)
					if err != nil {
						t.Error(err)
						return
					}
					if exp := wantUp[c][k][round-1]; !reflect.DeepEqual(got, exp) {
						t.Errorf("goroutine %d client %s weights %d round %d: the borrowed training differs from LocalTrain on the client's own model", g, cl.Name, k, round)
					}
				})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for i := range ops {
					ops[(i+g*len(ops)/n)%len(ops)](g)
				}
			}
		}()
	}
	wg.Wait()
	if _, err := sc.Train(clients[0], weights[0][:1], 1); err == nil {
		t.Error("Train accepted a wrong-length weight vector")
	}
	if built := len(sc.models.free); built < 1 || built > n {
		t.Fatalf("%d goroutines built %d models", n, built)
	}
	if built := len(sc.trainers.free); built < 1 || built > n {
		t.Fatalf("%d goroutines built %d trainers", n, built)
	}
}

// TestMergeKey: a merge is named by its members' keys and the factors
// WeightedFedAvg scales them by, in order — so coefficients that
// normalize alike name one merge — and is unnamed with any member.
func TestMergeKey(t *testing.T) {
	a, b := upd("A", 1, 0), upd("B", 3, 0)
	a.Key, b.Key = Key{1}, Key{2}
	ab := MergeKey([]*Update{a, b}, nil)
	if ab == (Key{}) {
		t.Fatal("named members merge unnamed")
	}
	if got := MergeKey([]*Update{a, b}, []float64{2, 6}); got != ab {
		t.Error("coefficients normalizing to the sample weights name another merge")
	}
	for name, k := range map[string]Key{
		"reordered":      MergeKey([]*Update{b, a}, nil),
		"other factors":  MergeKey([]*Update{a, b}, []float64{1, 1}),
		"one member":     MergeKey([]*Update{a}, nil),
		"a member's key": a.Key,
	} {
		if k == ab {
			t.Errorf("%s: names the same merge", name)
		}
	}
	if MergeKey([]*Update{a}, nil) == a.Key {
		t.Error("a one-update merge is named as the update: FedAvg({u}) may differ from u in the sign of zeros")
	}
	if got := MergeKey([]*Update{a, upd("C", 1, 0)}, nil); got != (Key{}) {
		t.Error("a merge with an unnamed member is named")
	}
}
