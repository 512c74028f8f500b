package waitornot

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"waitornot/internal/event"
)

// worldSweep is a 3-seed × 2-backend × 2-policy trade-off grid: four
// cells share each seed's world.
func worldSweep(t *testing.T, parallelism int) *sweepPlan {
	t.Helper()
	opts := tinyOpts(SimpleNN)
	opts.Rounds = 1
	opts.Parallelism = parallelism
	plan, err := New(opts,
		WithKind(KindTradeoff),
		WithPolicies(Policy{}, Policy{K: 1}),
		WithBackends("pow", "instant"),
		WithSeeds(1, 2, 3)).sweepPlan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// allCells is the plan's whole work list: every flat index, in order.
func allCells(plan *sweepPlan) []int {
	todo := make([]int, plan.total())
	for i := range todo {
		todo[i] = i
	}
	return todo
}

// progress is RunSweep's landed callback, reduced to what these tests read.
func progress(_ int, run SweepRun) (event.Event, error) {
	return event.SweepProgress{Seed: run.Seed, Policy: run.Policy, Backend: run.Backend}, nil
}

// TestSweepCancelDropsWorlds cancels RunSweep's work loop at the first
// SweepProgress, at Parallelism 1 and 4: it must return ctx.Err(),
// leave no goroutine behind, and hold no world once it has returned.
func TestSweepCancelDropsWorlds(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		plan := worldSweep(t, parallelism)
		ctx, cancel := context.WithCancel(context.Background())
		before := runtime.NumGoroutine()
		sink := event.Sink(func(ev event.Event) {
			if _, ok := ev.(event.SweepProgress); ok {
				cancel()
			}
		})
		runs, err := plan.runAll(ctx, sink, allCells(plan), progress)
		cancel()
		if !errors.Is(err, context.Canceled) || runs != nil {
			t.Fatalf("parallelism %d: runs=%v err=%v, want nil + context.Canceled", parallelism, runs, err)
		}
		if plan.worlds != nil {
			t.Fatalf("parallelism %d: the plan still holds its %d world slots after the sweep returned", parallelism, len(plan.worlds))
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("parallelism %d: %d goroutines after the sweep, %d before", parallelism, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSweepDropsEachWorldWithItsLastCell: run sequentially, the plan
// holds at most the world of the seed being run, and a seed's world is
// gone by the time its last cell lands.
func TestSweepDropsEachWorldWithItsLastCell(t *testing.T) {
	plan := worldSweep(t, 1)
	cells := plan.cells()
	_, err := plan.runAll(context.Background(), nil, allCells(plan), func(j int, run SweepRun) (event.Event, error) {
		built := 0
		for k := range plan.worlds {
			if plan.worlds[k].world != nil {
				built++
			}
		}
		held := plan.worlds[j/cells].world != nil
		if last := j%cells == cells-1; built > 1 || held == last {
			t.Errorf("cell %d landed holding %d built worlds (its seed's: %v)", j, built, held)
		}
		return progress(j, run)
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.worlds != nil {
		t.Fatalf("the plan still holds its %d world slots after the sweep", len(plan.worlds))
	}
}
