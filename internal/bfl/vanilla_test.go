package bfl

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"waitornot/internal/event"
	"waitornot/internal/nn"
)

func tinyVanilla() Config {
	return Config{
		Model:         nn.ModelSimpleNN,
		Peers:         3,
		Rounds:        2,
		Seed:          42,
		TrainPerPeer:  90,
		SelectionSize: 50,
		TestPerPeer:   60,
	}
}

func TestRunVanillaShapeAndRanges(t *testing.T) {
	cfg := tinyVanilla()
	var notConsiderCombos []string
	cfg.Events = func(ev event.Event) {
		if d, ok := ev.(event.AggregationDecided); ok && d.Arm == "not consider" {
			notConsiderCombos = append(notConsiderCombos, d.ChosenCombo)
		}
	}
	res, err := RunVanilla(context.Background(), cfg)
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
	a, err := RunVanilla(context.Background(), tinyVanilla())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVanilla(context.Background(), tinyVanilla())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two vanilla runs differ:\n%+v\n%+v", a, b)
	}
}

func TestRunVanillaValidates(t *testing.T) {
	cfg := tinyVanilla()
	cfg.Peers = 1
	if _, err := RunVanilla(context.Background(), cfg); err == nil {
		t.Fatal("1 client must be rejected")
	}
	cfg = tinyVanilla()
	cfg.TrainPerPeer = 31
	if _, err := RunVanilla(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "31 training samples per peer is less than one minibatch of 32") {
		t.Fatalf("sub-batch shard: err = %v", err)
	}
}
