package par

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(8, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for zero items")
	}
	if err := ForEach(8, -3, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for negative n")
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 57
		counts := make([]int32, n)
		if err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	errAt := func(idx int) error { return fmt.Errorf("item %d failed", idx) }
	// Items 3, 10, and 40 fail; the reported error must always be item
	// 3's, as in a sequential run, no matter how workers interleave.
	for trial := 0; trial < 20; trial++ {
		err := ForEach(8, 50, func(i int) error {
			switch i {
			case 3, 10, 40:
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("trial %d: got %v, want item 3's error", trial, err)
		}
	}
}

func TestForEachSequentialWhenOneWorker(t *testing.T) {
	var order []int
	if err := ForEach(1, 10, func(i int) error {
		order = append(order, i) // no synchronization: must be one goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("sequential order = %v", order)
	}
	// Sequential mode stops at the first error, exactly like a loop.
	var ran []int
	err := ForEach(1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("sequential error run visited %v", ran)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *Panic", workers, r)
				}
				// Items 2 and 5 panic; lowest index must win.
				if p.Index != 2 {
					t.Fatalf("workers=%d: panic index %d, want 2", workers, p.Index)
				}
				if p.Value != "boom-2" {
					t.Fatalf("workers=%d: panic value %v", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Fatalf("workers=%d: worker stack lost", workers)
				}
			}()
			_ = ForEach(workers, 8, func(i int) error {
				if workers == 1 && i > 2 {
					t.Fatal("sequential mode ran past a panic")
				}
				if i == 2 || i == 5 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return nil
			})
		}()
	}
}

func TestMapIndexAddressed(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		out, err := Map(workers, 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if out, err := Map(4, 0, func(i int) (int, error) { return 1, nil }); err != nil || out != nil {
		t.Fatalf("Map zero items: out=%v err=%v", out, err)
	}
	if out, err := Map(4, -2, func(i int) (int, error) { return 1, nil }); err != nil || out != nil {
		t.Fatalf("Map negative n: out=%v err=%v", out, err)
	}
	if out, err := Map(4, 10, func(i int) (int, error) {
		if i >= 7 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	}); err == nil || err.Error() != "fail 7" || out != nil {
		t.Fatalf("Map error path: out=%v err=%v", out, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) != runtime.NumCPU() || Workers(-1) != runtime.NumCPU() {
		t.Fatal("auto resolution broken")
	}
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("explicit worker counts must pass through")
	}
}

func TestForEachCtxSequentialCancelBetweenItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	err := ForEachCtx(ctx, 1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			cancel() // items 4..9 must never start
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("ran %v past the cancellation", ran)
	}
}

func TestForEachCtxParallelStopsClaiming(t *testing.T) {
	// Deterministic schedule: both workers claim an item and block on
	// the barrier; the context is cancelled before the barrier opens,
	// so cancellation happens-before every subsequent claim check and
	// exactly the two in-flight items run.
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int32
	go func() {
		for started.Load() < 2 {
			runtime.Gosched() // wait until both workers are in flight
		}
		cancel()
		close(release)
	}()
	err := ForEachCtx(ctx, 2, 1000, func(i int) error {
		started.Add(1)
		<-release
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 2 {
		t.Fatalf("pool ran %d items after cancellation, want exactly the 2 in flight", n)
	}
}

func TestForEachCtxItemErrorBeatsCancellation(t *testing.T) {
	// A real failure at a low index wins over ctx.Err(), keeping the
	// sequential error contract for runs that fail before the cancel.
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtx(ctx, 4, 50, func(i int) error {
		if i == 2 {
			defer cancel()
			return errors.New("item 2 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "item 2 failed" {
		t.Fatalf("err = %v, want item 2's error", err)
	}
}

func TestForEachCtxUncancelledMatchesForEach(t *testing.T) {
	n := 57
	counts := make([]int32, n)
	if err := ForEachCtx(context.Background(), 8, n, func(i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 4, 10, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("out=%v err=%v, want nil + context.Canceled", out, err)
	}
}
