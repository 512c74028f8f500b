package fl

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"waitornot/internal/dataset"
	"waitornot/internal/event"
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
	eval := func(w []float32) float64 { return float64(w[0]) }
	results, err := EvaluateCombosWith(ups, AllCombos(3), []Evaluator{eval}, nil)
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

func tinyVanillaConfig(model nn.ModelID) VanillaConfig {
	return VanillaConfig{
		Model:          model,
		Clients:        3,
		Rounds:         2,
		Seed:           42,
		TrainPerClient: 90,
		SelectionSize:  50,
		TestPerClient:  60,
		Pretrain:       PretrainSpec{Samples: 100, Epochs: 1, LR: 3e-3},
	}
}

func TestRunVanillaShapeAndRanges(t *testing.T) {
	cfg := tinyVanillaConfig(nn.ModelSimpleNN)
	var notConsiderCombos []string
	cfg.Events = func(ev event.Event) {
		if d, ok := ev.(event.AggregationDecided); ok && d.Arm == ModeNotConsider.String() {
			notConsiderCombos = append(notConsiderCombos, d.ChosenCombo)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClientNames) != 3 {
		t.Fatalf("client names: %v", res.ClientNames)
	}
	for arm, accuracy := range map[string][][]float64{"consider": res.Consider, "not consider": res.NotConsider} {
		if len(accuracy) != 3 {
			t.Fatalf("%s: %d clients", arm, len(accuracy))
		}
		for _, series := range accuracy {
			if len(series) != 2 {
				t.Fatalf("%s: %d rounds", arm, len(series))
			}
			for _, acc := range series {
				if acc < 0 || acc > 1 {
					t.Fatalf("%s: accuracy %v out of range", arm, acc)
				}
			}
		}
	}
	if len(res.ConsiderCombos) != 2 {
		t.Fatalf("consider: chosen combos %v", res.ConsiderCombos)
	}
	// Not-consider always aggregates everyone.
	if !reflect.DeepEqual(notConsiderCombos, []string{"A,B,C", "A,B,C"}) {
		t.Fatalf("not-consider chose %q", notConsiderCombos)
	}
}

func TestRunVanillaDeterministic(t *testing.T) {
	a, err := Run(context.Background(), tinyVanillaConfig(nn.ModelSimpleNN))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), tinyVanillaConfig(nn.ModelSimpleNN))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two vanilla runs differ:\n%+v\n%+v", a, b)
	}
}

func TestRunVanillaValidates(t *testing.T) {
	cfg := tinyVanillaConfig(nn.ModelSimpleNN)
	cfg.Clients = 1
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("1 client must be rejected")
	}
	cfg = tinyVanillaConfig(nn.ModelSimpleNN)
	cfg.TrainPerClient = 31
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "31 training samples per client is less than one minibatch of 32") {
		t.Fatalf("sub-batch shard: err = %v", err)
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
	if len(u.Weights) != model.NumParams() {
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
	if acc := c.SelectionEvaluator()(u.Weights); acc < 0 || acc > 1 {
		t.Fatalf("selection accuracy %v", acc)
	}
	if acc := c.TestAccuracy(u.Weights); acc < 0 || acc > 1 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestPretrainChangesWeights(t *testing.T) {
	root := xrand.New(9)
	model := nn.NewEffNetSim(root.Derive("init"))
	before := model.WeightVector()
	Pretrain(model, dataset.DefaultConfig(), PretrainSpec{Samples: 64, Epochs: 1, LR: 0.01}, 2, root.Derive("pre"))
	after := model.WeightVector()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pretraining must change weights")
	}
	// Zero spec is a no-op.
	unchanged := model.WeightVector()
	Pretrain(model, dataset.DefaultConfig(), PretrainSpec{}, 2, root.Derive("pre2"))
	now := model.WeightVector()
	for i := range unchanged {
		if unchanged[i] != now[i] {
			t.Fatal("zero pretrain spec must be a no-op")
		}
	}
}

func TestNewAccuracyEvaluatorBounds(t *testing.T) {
	root := xrand.New(11)
	s := dataset.Generate(dataset.DefaultConfig(), 40, root)
	eval := NewAccuracyEvaluator(nn.ModelSimpleNN, s)
	w := nn.NewSimpleNN(root.Derive("m")).WeightVector()
	if acc := eval(w); acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
}

// TestEvaluateCombosWithMatchesSequential: the concurrent combination
// search must produce results identical to the sequential one, in the
// same order, for any worker count.
func TestEvaluateCombosWithMatchesSequential(t *testing.T) {
	ups := []*Update{
		upd("A", 1, 1, 0), upd("B", 2, 0, 1),
		upd("C", 3, 2, 2), upd("D", 1, 3, 1),
	}
	combos := AllCombos(4)
	eval := func(w []float32) float64 { return float64(w[0])*10 + float64(w[1]) }
	seq, err := EvaluateCombosWith(ups, combos, []Evaluator{eval}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		evals := make([]Evaluator, workers)
		for i := range evals {
			evals[i] = eval
		}
		got, err := EvaluateCombosWith(ups, combos, evals, NewAveragers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d: parallel combo results differ from sequential", workers)
		}
	}
}

func TestEvaluateCombosWithErrors(t *testing.T) {
	ups := []*Update{upd("A", 1, 1, 0), upd("B", 0, 0, 1)} // B invalid
	eval := func(w []float32) float64 { return 0 }
	if _, err := EvaluateCombosWith(ups, AllCombos(2), nil, nil); err == nil {
		t.Fatal("zero evaluators accepted")
	}
	evals := []Evaluator{eval, eval}
	if _, err := EvaluateCombosWith(ups, AllCombos(2), evals, nil); err == nil {
		t.Fatal("invalid update not surfaced by parallel search")
	}
}

// TestSelectionEvaluatorsIndependent: every evaluator in the pool owns
// its own scratch model, agrees with its siblings, and is pure.
func TestSelectionEvaluatorsIndependent(t *testing.T) {
	cfg := dataset.DefaultConfig()
	set := dataset.Generate(cfg, 40, xrand.New(2))
	evals := SelectionEvaluators(nn.ModelSimpleNN, set, 3)
	if len(evals) != 3 {
		t.Fatalf("got %d evaluators", len(evals))
	}
	w := nn.ModelSimpleNN.Build(xrand.New(5)).WeightVector()
	want := evals[0](w)
	for i, e := range evals {
		if got := e(w); got != want {
			t.Fatalf("evaluator %d disagrees: %v vs %v", i, got, want)
		}
	}
	if got := SelectionEvaluators(nn.ModelSimpleNN, set, 0); len(got) != 1 {
		t.Fatalf("n<1 must clamp to one evaluator, got %d", len(got))
	}
}
