package par

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// occupy starts k tasks joined before anything else (at -1) that hold
// their workers until release is closed, and returns once all k run.
func occupy(s *Tasks, k int, release <-chan struct{}) []*Task {
	var started sync.WaitGroup
	tasks := make([]*Task, k)
	for i := range tasks {
		started.Add(1)
		tasks[i] = s.Go(-1, i, func() error { started.Done(); <-release; return nil })
	}
	started.Wait()
	return tasks
}

// settleGoroutines waits (bounded) for the goroutine count to fall back
// to want: a worker that has signalled its WaitGroup may not have
// exited yet.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a worker leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTasksWaitRunsUnclaimedOnCaller: with every background worker
// busy, Wait runs a queued task itself instead of blocking behind them,
// and returns the task's error.
func TestTasksWaitRunsUnclaimedOnCaller(t *testing.T) {
	s := NewTasks(2)
	defer s.Close()
	release := make(chan struct{})
	busy := occupy(s, Workers(2), release)
	var stack string
	failed := errors.New("task failed")
	queued := s.Go(0, 0, func() error { stack = string(debug.Stack()); return failed })
	if err := s.Wait(queued); err != failed {
		t.Fatalf("Wait returned %v, want the task's error", err)
	}
	if !strings.Contains(stack, "(*Tasks).Wait") {
		t.Fatalf("the unclaimed task did not run inside Wait:\n%s", stack)
	}
	close(release)
	for _, task := range busy {
		s.Wait(task)
	}
}

// TestTasksConcurrencyBounded: at no instant do more tasks run than the
// Workers(n) background workers plus the joining goroutine (one at
// n = 1, where there are no workers), and for n > 1 a task runs
// without anyone waiting for it.
func TestTasksConcurrencyBounded(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		bound := int64(Workers(n) + 1)
		if n == 1 {
			bound = 1
		}
		s := NewTasks(n)
		var running, high atomic.Int64
		tasks := make([]*Task, 40)
		for i := range tasks {
			tasks[i] = s.Go(float64(i%7), i, func() error {
				now := running.Add(1)
				for {
					h := high.Load()
					if now <= h || high.CompareAndSwap(h, now) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
				running.Add(-1)
				return nil
			})
		}
		for _, task := range tasks {
			s.Wait(task)
		}
		if h := high.Load(); h > bound {
			t.Fatalf("n=%d: %d tasks ran at once, bound %d", n, h, bound)
		}
		if n > 1 {
			ran := make(chan struct{})
			s.Go(0, 0, func() error { close(ran); return nil })
			select {
			case <-ran:
			case <-time.After(10 * time.Second):
				t.Fatalf("n=%d: a started task never ran in the background", n)
			}
		}
		s.Close()
	}
}

// TestTasksSequentialAtOne: at parallelism 1 no goroutine starts and a
// task runs only inside its Wait.
func TestTasksSequentialAtOne(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewTasks(1)
	defer s.Close()
	var ran [3]atomic.Bool
	tasks := make([]*Task, len(ran))
	for i := range tasks {
		tasks[i] = s.Go(0, i, func() error { ran[i].Store(true); return nil })
	}
	time.Sleep(20 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("parallelism 1 started goroutines: %d -> %d", before, g)
	}
	for i, task := range tasks {
		if ran[i].Load() {
			t.Fatalf("task %d ran before its Wait", i)
		}
		s.Wait(task)
		if !ran[i].Load() {
			t.Fatalf("task %d did not run in its Wait", i)
		}
	}
}

// TestTasksClaimOrder: a worker claims queued tasks in ascending
// (at, index) order, not in the order they were started.
func TestTasksClaimOrder(t *testing.T) {
	s := NewTasks(2)
	defer s.Close()
	// Hold one worker for the whole test and free the other once the
	// queue is full, so exactly one worker drains it.
	hold, release := make(chan struct{}), make(chan struct{})
	held := s.Go(-2, 0, func() error { <-hold; return nil })
	busy := occupy(s, 1, release)
	var mu sync.Mutex
	var order []int
	var done sync.WaitGroup
	for _, k := range []struct {
		at    float64
		index int
	}{{5, 1}, {2, 3}, {5, 0}, {2, 1}, {9, 2}} {
		done.Add(1)
		id := int(k.at)*10 + k.index
		s.Go(k.at, k.index, func() error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			done.Done()
			return nil
		})
	}
	close(release)
	done.Wait()
	close(hold)
	s.Wait(held)
	s.Wait(busy[0])
	if want := []int{21, 23, 50, 51, 92}; !reflect.DeepEqual(order, want) {
		t.Fatalf("claim order %v, want %v", order, want)
	}
}

// TestTasksCloseDropsUnclaimed: Close waits for the running tasks,
// never starts the queued one (a later Wait runs it on the caller) and
// leaves no goroutine behind.
func TestTasksCloseDropsUnclaimed(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewTasks(2)
	release := make(chan struct{})
	var finished atomic.Int64
	var queuedRan atomic.Bool
	var started sync.WaitGroup
	for i := 0; i < Workers(2); i++ {
		started.Add(1)
		s.Go(0, i, func() error {
			started.Done()
			<-release
			finished.Add(1)
			return nil
		})
	}
	started.Wait()
	queued := s.Go(1, 0, func() error { queuedRan.Store(true); return nil })
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while tasks were still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if got := finished.Load(); got != int64(Workers(2)) {
		t.Fatalf("Close returned with %d of %d running tasks finished", got, Workers(2))
	}
	if queuedRan.Load() {
		t.Fatal("Close let a worker run an unclaimed task")
	}
	settleGoroutines(t, before)
	s.Wait(queued)
	if !queuedRan.Load() {
		t.Fatal("Wait on a dropped task did not run it")
	}
	s.Close()
}

// TestTasksPanicReraised: a task's panic reaches its waiter as a *Panic
// with the task's index, the value and a stack — whether a worker or
// the waiter ran it.
func TestTasksPanicReraised(t *testing.T) {
	for _, n := range []int{1, 2} {
		s := NewTasks(n)
		ran := make(chan struct{})
		task := s.Go(0, 7, func() error {
			defer close(ran)
			panic("boom")
		})
		if n > 1 {
			<-ran // a worker ran it
		}
		func() {
			defer func() {
				p, ok := recover().(*Panic)
				if !ok {
					t.Fatalf("n=%d: recovered %T, want *Panic", n, p)
				}
				if p.Index != 7 || p.Value != "boom" || len(p.Stack) == 0 {
					t.Fatalf("n=%d: panic = index %d value %v, %d stack bytes", n, p.Index, p.Value, len(p.Stack))
				}
			}()
			s.Wait(task)
			t.Fatalf("n=%d: Wait returned normally", n)
		}()
		s.Close()
	}
}
