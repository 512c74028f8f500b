package waitornot

import (
	"context"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

var allKinds = []Kind{KindVanilla, KindDecentralized, KindTradeoff, KindAsync, KindSharded}

// fieldReaders is the table of which kinds read each Options and
// Scenario field, written here independently of the `kinds` tags the
// check reads, so a dropped tag and an unclassified new field both fail
// TestEveryFieldHasItsKinds.
func fieldReaders() map[string][]Kind {
	all, notVanilla := allKinds, allKinds[1:]
	flat := []Kind{KindDecentralized, KindTradeoff, KindAsync}
	sharded, async := []Kind{KindSharded}, []Kind{KindAsync}
	return map[string][]Kind{
		"Scenario.Name":          all,
		"Scenario.Description":   all,
		"Scenario.Kind":          all,
		"Scenario.Options":       all,
		"Scenario.Policies":      notVanilla,
		"Scenario.Backends":      notVanilla,
		"Scenario.Seeds":         notVanilla, // the vanilla baseline is never swept
		"Scenario.ShardCounts":   sharded,
		"Scenario.MergeCadences": sharded,

		"Options.Model":          all,
		"Options.Clients":        all,
		"Options.Rounds":         all,
		"Options.Seed":           all,
		"Options.TrainPerClient": all,
		"Options.SelectionSize":  all,
		"Options.TestPerClient":  all,
		"Options.DirichletAlpha": all,
		"Options.LearningRate":   all,
		"Options.LocalEpochs":    all,
		"Options.Parallelism":    all,
		// A trade-off run takes its policies from the ladder.
		"Options.Policy":             {KindDecentralized, KindAsync, KindSharded},
		"Options.FilterMaxBelowBest": notVanilla,
		"Options.StragglerFactor":    notVanilla,
		// Skipping tables a kind never builds is already done.
		"Options.SkipComboTables": all,
		"Options.PoisonClient":    all,
		"Options.PoisonFraction":  all,
		"Options.ClientFraction":  flat,
		"Options.Backend":         notVanilla,
		"Options.CommitLatency":   notVanilla,
		"Options.Shards":          sharded,
		"Options.ShardBackends":   sharded,
		"Options.MergeCadence":    sharded,
		"Options.MergeMode":       sharded,
		"Options.AdaptiveShards":  sharded,
		"Options.ComputeDist":     notVanilla,
		"Options.NetworkDist":     notVanilla,
		"Options.TimeBudgetMs":    async,
	}
}

// setNonZero gives v a value other than its zero: the smallest change
// that makes a field count as set.
func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Struct:
		setNonZero(v.Field(0))
	default:
		panic("setNonZero: unhandled " + v.Kind().String())
	}
}

// unreadError is the check's message for a field its kind does not
// read, as far as a test asserts it: the field and the kind.
func unreadError(field string, k Kind) string {
	return field + " is an error on " + k.String() + " experiments"
}

// TestEveryFieldHasItsKinds walks every Options and Scenario field and
// sets it, alone, on each kind: the check refuses it, naming the field
// and the kind, exactly where fieldReaders says the kind does not read
// it. A new field fails here until it is classified.
func TestEveryFieldHasItsKinds(t *testing.T) {
	readers := fieldReaders()
	seen := 0
	for _, top := range []reflect.Type{reflect.TypeFor[Scenario](), reflect.TypeFor[Options]()} {
		for i := range top.NumField() {
			name := top.Name() + "." + top.Field(i).Name
			kinds, ok := readers[name]
			if !ok {
				t.Errorf("%s is not classified: say which kinds read it (a `kinds` tag, and a row in fieldReaders)", name)
				continue
			}
			seen++
			if name == "Scenario.Kind" || name == "Scenario.Options" {
				continue // the description itself, not a knob on it
			}
			for _, k := range allKinds {
				sc := Scenario{Kind: k, Options: Options{Clients: 4}}
				// A sharded run reads its ladder only through the
				// adaptive controller (the row in
				// TestDescriptionCheckedBeforeTheContext refuses it
				// without).
				sc.Options.AdaptiveShards = k == KindSharded && name == "Scenario.Policies"
				v := reflect.ValueOf(&sc).Elem()
				if top == reflect.TypeFor[Options]() {
					v = v.FieldByName("Options")
				}
				setNonZero(v.Field(i))
				err := sc.Experiment().check()
				refused := err != nil && strings.Contains(err.Error(), unreadError(name, k))
				if want := !slices.Contains(kinds, k); refused != want {
					t.Errorf("%s set on %v: err = %v, want refused as unread = %v", name, k, err, want)
				}
			}
		}
	}
	if seen != len(readers) {
		t.Errorf("fieldReaders has %d rows for %d fields: drop the rows of fields that are gone", len(readers), seen)
	}
}

// TestArrivalDistsAreRead measures the widened rows: ComputeDist and
// NetworkDist change what every barriered kind reports, on the flat
// run, the trade-off grid and the sharded hierarchy alike.
func TestArrivalDistsAreRead(t *testing.T) {
	for _, k := range []Kind{KindDecentralized, KindTradeoff, KindSharded} {
		opts := tinyOpts(SimpleNN)
		opts.Clients, opts.SkipComboTables = 4, true
		fixed, err := New(opts, WithKind(k)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		opts.ComputeDist = Dist{Kind: DistLogNormal, Mean: 1, Jitter: 0.6}
		opts.NetworkDist = Dist{Kind: DistExponential, Mean: 30}
		drawn, err := New(opts, WithKind(k)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(fixed, drawn) {
			t.Errorf("%v: the distributions changed nothing", k)
		}
	}
}

// TestDescriptionCheckedBeforeTheContext is what cmd/repro's validate
// relies on. On a context that is already cancelled, Run, RunSweep and
// RunCampaign return a bad description's own error, naming the field
// and the kind (RegisterScenario refuses it the same way), and
// RunCampaign creates no directory; a good description returns
// context.Canceled, having done no work. There is one bad description
// per row of the kinds table, each a knob the kind was seen to ignore.
func TestDescriptionCheckedBeforeTheContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// entryErrors resolves sc through every entry point, checking that
	// the campaign left no directory behind.
	entryErrors := func(t *testing.T, sc Scenario, sweeps bool) []error {
		t.Helper()
		_, err := sc.Experiment().Run(cancelled)
		errs := []error{err}
		if sweeps {
			dir := t.TempDir() + "/campaign"
			_, err = sc.Experiment(WithReplications(1)).RunSweep(cancelled)
			errs = append(errs, err)
			_, err = sc.Experiment(WithReplications(1)).RunCampaign(cancelled, dir)
			errs = append(errs, err)
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Errorf("%v: RunCampaign on a cancelled context left %s behind (%v)", sc.Kind, dir, statErr)
			}
		}
		return errs
	}

	fourKnobs := Options{
		ComputeDist:  Dist{Kind: DistLogNormal, Mean: 1, Jitter: 0.8},
		NetworkDist:  Dist{Kind: DistExponential, Mean: 500},
		TimeBudgetMs: 1,
		MergeCadence: 7,
	}
	bad := []struct {
		field string // what the error names besides the kind
		sc    Scenario
	}{
		// Fields step in struct order, so the four knobs of a paper
		// schedule that ignored them name the first: MergeCadence.
		{"Options.MergeCadence", Scenario{Kind: KindDecentralized, Options: fourKnobs}},
		{"Options.ComputeDist", Scenario{Kind: KindVanilla, Options: Options{ComputeDist: fourKnobs.ComputeDist}}},
		{"Options.NetworkDist", Scenario{Kind: KindVanilla, Options: Options{NetworkDist: fourKnobs.NetworkDist}}},
		{"Options.TimeBudgetMs", Scenario{Kind: KindTradeoff, Options: Options{TimeBudgetMs: 500}}},
		{"Options.Shards", Scenario{Kind: KindDecentralized, Options: Options{Clients: 4, Shards: 2}}},
		{"Options.ShardBackends", Scenario{Kind: KindAsync, Options: Options{ShardBackends: []string{"poa"}}}},
		{"Options.MergeCadence", Scenario{Kind: KindTradeoff, Options: Options{MergeCadence: 2}}},
		{"Options.MergeMode", Scenario{Kind: KindDecentralized, Options: Options{MergeMode: MergeAsync}}},
		{"Options.AdaptiveShards", Scenario{Kind: KindAsync, Options: Options{AdaptiveShards: true}}},
		{"Scenario.ShardCounts", Scenario{Kind: KindTradeoff, ShardCounts: []int{2}}},
		{"Scenario.MergeCadences", Scenario{Kind: KindDecentralized, MergeCadences: []int{1}}},
		{"Options.Policy", Scenario{Kind: KindTradeoff, Options: Options{Policy: Policy{K: 1}}}},
		{"Options.Policy", Scenario{Kind: KindVanilla, Options: Options{Policy: Policy{Deadline: time.Second}}}},
		{"Options.Backend", Scenario{Kind: KindVanilla, Options: Options{Backend: "poa"}}},
		{"Options.CommitLatency", Scenario{Kind: KindVanilla, Options: Options{CommitLatency: true}}},
		{"Options.StragglerFactor", Scenario{Kind: KindVanilla, Options: Options{StragglerFactor: []float64{1, 1, 3}}}},
		{"Options.FilterMaxBelowBest", Scenario{Kind: KindVanilla, Options: Options{FilterMaxBelowBest: 0.15}}},
		{"Options.ClientFraction", Scenario{Kind: KindVanilla, Options: Options{ClientFraction: 0.5}}},
		{"Options.ClientFraction", Scenario{Kind: KindSharded, Options: Options{Clients: 4, ClientFraction: 0.5}}},
		{"Scenario.Policies", Scenario{Kind: KindVanilla, Policies: DefaultPolicies(3)}},
		// Only the adaptive controller reads a sharded run's ladder.
		{"Scenario.Policies", Scenario{Kind: KindSharded, Options: Options{Clients: 4}, Policies: DefaultPolicies(2)}},
		{"Scenario.Backends", Scenario{Kind: KindVanilla, Backends: []string{"poa"}}},
		{"Scenario.Seeds", Scenario{Kind: KindVanilla, Seeds: []uint64{1, 2}}},
	}
	for _, tc := range bad {
		want := unreadError(tc.field, tc.sc.Kind)
		for i, err := range entryErrors(t, tc.sc, true) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s on %v, entry point %d: err = %v, want %q", tc.field, tc.sc.Kind, i, err, want)
			}
		}
		tc.sc.Name = "x-unread-" + tc.field
		if err := RegisterScenario(tc.sc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RegisterScenario with %s on %v: err = %v, want %q", tc.field, tc.sc.Kind, err, want)
		}
	}
	// An unknown model, an invalid value, a duplicated ladder entry
	// (which only the trade-off run's sweep plan sees) and a hierarchy at
	// the default shard count take the same path.
	for _, sc := range []Scenario{
		{Kind: KindDecentralized, Options: Options{Model: Model(99)}},
		{Kind: KindAsync, Options: Options{ClientFraction: 1.5}},
		{Kind: KindTradeoff, Policies: []Policy{{}, {}}},
		{Kind: KindSharded, Options: Options{Clients: 3}},
	} {
		for i, err := range entryErrors(t, sc, true) {
			if err == nil || errors.Is(err, context.Canceled) {
				t.Errorf("%+v, entry point %d: err = %v, want the description's error", sc, i, err)
			}
		}
	}

	// Good descriptions: every built-in scenario, and the shapes the
	// repository's benchmark builds — a traced trade-off ladder that
	// also sets Options.Backend, the decentralized set-up probe with
	// both ladders and a Backend, and a trade-off run skipping tables.
	good := Scenarios()
	good = append(good,
		Scenario{Name: "ladder-sweep", Kind: KindTradeoff, Options: Options{Backend: "pow"},
			Policies: DefaultPolicies(3), Backends: []string{"pow", "poa", "pbft", "instant"}},
		Scenario{Name: "set-up probe", Kind: KindDecentralized, Options: Options{Backend: "pow"},
			Policies: DefaultPolicies(3), Backends: []string{"pow", "poa", "pbft", "instant"}},
		Scenario{Name: "tables skipped", Kind: KindTradeoff, Options: Options{SkipComboTables: true}},
	)
	for _, sc := range good {
		for i, err := range entryErrors(t, sc, sc.Kind != KindVanilla) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s (%v), entry point %d: err = %v, want context.Canceled", sc.Name, sc.Kind, i, err)
			}
		}
	}
}
