// Package par is the repository's deterministic parallel execution
// engine: a bounded worker pool over an index space with
// index-addressed result slots, plus Tasks (start now, join later).
//
// # Determinism contract
//
// Every function in this package guarantees that its observable output
// is a pure function of (n, fn) and never of goroutine scheduling:
//
//   - Work item i writes only to slot i of its output; slots are
//     pre-sized, so completion order cannot reorder results.
//   - The returned error is the error of the LOWEST failing index
//     ("first error wins" in the sequential sense), regardless of
//     which worker hit an error first in wall-clock time.
//   - Panics propagate: if any item panics, the pool drains and the
//     panic of the lowest panicking index is re-raised on the caller's
//     goroutine, wrapped in a *Panic that preserves the original value
//     and the worker's stack.
//   - workers <= 1 degenerates to a plain sequential loop on the
//     caller's goroutine — the exact sequential schedule, useful as the
//     bit-reproducibility baseline.
//
// Callers remain responsible for making fn(i) independent of fn(j):
// the idiom across this repository is to pre-seed each item with its
// own xrand stream (derived by label, not by draw order) and give each
// worker its own scratch model, so running items concurrently is
// bit-identical to running them one by one.
package par

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Panic wraps a panic recovered from a worker goroutine so it can be
// re-raised on the caller's goroutine without losing the worker stack.
type Panic struct {
	// Index is the work item that panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error (a *Panic is re-panicked, but implementing
// error makes it printable if someone recovers it).
func (p *Panic) Error() string {
	return fmt.Sprintf("par: item %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Workers resolves a parallelism knob: n <= 0 means runtime.NumCPU(),
// anything else is returned as-is. Centralizing this keeps every
// Parallelism field in the repository on the same convention
// (0 = auto, 1 = sequential, N = N workers).
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns the error of the lowest failing index, or nil.
// n <= 0 is a no-op. See the package comment for the determinism
// contract. Unlike the sequential loop, items after a failing index
// still run (their effects are discarded by the caller along with the
// error); only the reported error matches the sequential run.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachCtx is ForEach with cooperative cancellation: workers check
// ctx between items and stop claiming new ones once ctx is done
// (items already running finish — fn is never interrupted mid-item).
// If the pool drains without an item error but ctx was cancelled,
// ctx.Err() is returned; an item error at a lower index still wins, so
// uncancelled runs keep the full determinism contract. On
// cancellation the caller must treat any partially filled output as
// garbage, exactly as it would on an item error.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker's identity passed to fn:
// worker is a stable id in [0, min(workers, n)). It exists so callers
// can give each worker private scratch state (a scratch model, a
// reusable buffer) allocated once per worker instead of once per item.
// fn must not let the worker id influence item i's result — only which
// scratch arena computes it.
func ForEachWorker(workers, n int, fn func(worker, i int) error) error {
	return ForEachWorkerCtx(context.Background(), workers, n, fn)
}

// ForEachWorkerCtx is ForEachWorker with the cooperative-cancellation
// semantics of ForEachCtx.
func ForEachWorkerCtx(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runSequential(i, fn); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	errs := make([]error, n)    // index-addressed: slot i belongs to item i
	panics := make([]*Panic, n) // ditto
	chunk := chunkSize(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				// Claim a contiguous batch of indices per atomic op so
				// pool overhead amortizes across cheap items. Slot
				// addressing keeps the output independent of which
				// worker claims which batch.
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end && ctx.Err() == nil; i++ {
					runItem(worker, i, fn, errs, panics)
				}
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return ctx.Err()
}

// chunkSize picks how many indices a worker claims per atomic operation:
// small enough that every worker gets several claims (load balance for
// heavy-tailed items), large enough that per-item claim overhead
// amortizes when items are tiny and numerous (sweep cells, combo
// evaluations). n <= workers*8 degenerates to 1, the classic
// item-at-a-time schedule.
func chunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > 64 {
		return 64
	}
	return c
}

// runSequential executes one item on the caller's goroutine, wrapping
// a panic in *Panic so sequential and parallel runs raise the same
// type (the stack is the caller's own here, so it is left nil).
func runSequential(i int, fn func(worker, i int) error) error {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(*Panic); ok {
				panic(p)
			}
			panic(&Panic{Index: i, Value: r, Stack: debug.Stack()})
		}
	}()
	return fn(0, i)
}

// runItem executes one work item, capturing a panic into its slot so
// the pool can keep draining and the caller sees the lowest index.
func runItem(worker, i int, fn func(worker, i int) error, errs []error, panics []*Panic) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = &Panic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	errs[i] = fn(worker, i)
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. n <= 0 returns (nil, nil),
// mirroring ForEach's no-op. On error the slice is nil and the error
// is the lowest failing index's (see ForEach).
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with the cooperative-cancellation semantics of
// ForEachCtx: on cancellation the slice is nil and the error is
// ctx.Err() (unless a lower-indexed item failed first).
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Tasks is a set of start-now, join-later tasks: when a task's inputs
// are final at Go and untouched until Wait, running it early is
// bit-identical to running it inside its Wait. One goroutine starts and
// joins them; Workers(parallelism) workers claim them in (at, index)
// order, its join order, and Wait runs an unclaimed task on the caller:
// at most Workers(parallelism)+1 run at once, and at parallelism 1 none
// before its Wait — the exact sequential schedule.
type Tasks struct {
	mu     sync.Mutex
	ready  sync.Cond // a task was queued or the set closed
	queue  []*Task   // started and unclaimed, in claim order
	closed bool
	wg     sync.WaitGroup
}

// Task is one started task of a Tasks set.
type Task struct {
	at    float64
	index int
	fn    func() error
	done  chan struct{}
	err   error
	panic *Panic
}

// NewTasks returns an empty set bounded by parallelism; Close it.
func NewTasks(parallelism int) *Tasks {
	s := &Tasks{}
	s.ready.L = &s.mu
	if w := Workers(parallelism); w > 1 {
		s.wg.Add(w)
		for range w {
			go s.work()
		}
	}
	return s
}

// Go starts fn as the task joined at (at, index).
func (s *Tasks) Go(at float64, index int, fn func() error) *Task {
	t := &Task{at: at, index: index, fn: fn, done: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := slices.BinarySearchFunc(s.queue, t, func(q, t *Task) int {
		return cmp.Or(cmp.Compare(q.at, t.at), cmp.Compare(q.index, t.index))
	})
	s.queue = slices.Insert(s.queue, i, t)
	s.ready.Signal()
	return t
}

// Wait returns t's error once t has run, running it on the caller if
// no worker has claimed it; t's panic is re-raised here as a *Panic.
func (s *Tasks) Wait(t *Task) error {
	s.mu.Lock()
	i := slices.Index(s.queue, t)
	if i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
	}
	s.mu.Unlock()
	if i >= 0 {
		t.run()
	}
	<-t.done
	if t.panic != nil {
		panic(t.panic)
	}
	return t.err
}

// Close drops the unclaimed tasks and waits for the running ones.
func (s *Tasks) Close() {
	s.mu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Tasks) work() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if len(s.queue) == 0 {
			s.ready.Wait()
			continue
		}
		t := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		s.mu.Unlock()
		t.run()
		s.mu.Lock()
	}
}

func (t *Task) run() {
	defer func() {
		if r := recover(); r != nil {
			t.panic = &Panic{Index: t.index, Value: r, Stack: debug.Stack()}
		}
		close(t.done)
	}()
	t.err = t.fn()
}
