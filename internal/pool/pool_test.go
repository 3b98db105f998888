package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dterr"
	"repro/internal/faults"
)

// ok wraps a no-error task body.
func ok(fn func(worker, task int)) func(int, int) error {
	return func(w, i int) error { fn(w, i); return nil }
}

func TestNilPoolIsSingleThreaded(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Fatalf("nil pool Size = %d", p.Size())
	}
	ran := 0
	err := p.Run(nil, 5, ok(func(worker, task int) {
		if worker != 0 {
			t.Errorf("nil pool used worker %d", worker)
		}
		ran++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("ran %d of 5 tasks", ran)
	}
	if b := p.Get(16); len(b) != 16 {
		t.Fatalf("nil pool Get length %d", len(b))
	}
	p.Put(make([]float64, 8)) // must not panic
	if s := p.Stats(); s.Workers != 1 || s.Regions != 0 {
		t.Fatalf("nil pool stats %+v", s)
	}
}

func TestRunCoversAllTasksOnce(t *testing.T) {
	for _, size := range []int{1, 2, 4, 9} {
		p := New(size)
		const n = 137
		var hits [n]atomic.Int32
		err := p.Run(nil, n, ok(func(worker, task int) {
			if worker < 0 || worker >= size {
				t.Errorf("worker id %d outside [0,%d)", worker, size)
			}
			hits[task].Add(1)
		}))
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("size %d: task %d ran %d times", size, i, got)
			}
		}
	}
}

func TestRunWorkerIdsExclusive(t *testing.T) {
	// Each worker id must be held by one goroutine at a time, so per-worker
	// scratch indexing is safe. Non-atomic counters per worker would trip
	// the race detector if ids were shared.
	p := New(4)
	counts := make([]int, 4)
	if err := p.Run(nil, 1000, ok(func(worker, task int) {
		counts[worker]++
	})); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("per-worker counts sum to %d, want 1000", total)
	}
}

func TestRunRangesPartition(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 3}, {7, 7}, {5, 16}, {1, 4}, {100, 1}} {
		p := New(tc.w)
		covered := make([]atomic.Int32, tc.n)
		err := p.RunRanges(nil, tc.n, tc.w, func(worker, lo, hi int) error {
			if lo >= hi {
				t.Errorf("empty range [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range covered {
			if got := covered[i].Load(); got != 1 {
				t.Fatalf("n=%d w=%d: index %d covered %d times", tc.n, tc.w, i, got)
			}
		}
	}
}

func TestArenaReusesBuffers(t *testing.T) {
	p := New(2)
	b := p.Get(64)
	b[0] = 42
	p.Put(b)
	c := p.Get(64)
	if &b[0] != &c[0] {
		t.Fatal("arena did not reuse the returned buffer")
	}
	if d := p.Get(64); &d[0] == &c[0] {
		t.Fatal("arena handed out an in-use buffer")
	}
	if p.Get(0) != nil {
		t.Fatal("Get(0) should return nil")
	}
}

func TestStatsCount(t *testing.T) {
	p := New(3)
	p.Run(nil, 10, ok(func(worker, task int) {}))
	p.RunRanges(nil, 8, 2, func(worker, lo, hi int) error { return nil })
	s := p.Stats()
	if s.Workers != 3 || s.Regions != 2 || s.Tasks != 18 {
		t.Fatalf("stats %+v", s)
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	if New(0).Size() != 1 || New(-5).Size() != 1 {
		t.Fatal("non-positive sizes not clamped to 1")
	}
	New(2).Run(nil, 0, ok(func(worker, task int) { t.Fatal("ran a task for n=0") }))
}

func TestTaskErrorStopsGroup(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := New(size)
		boom := errors.New("boom")
		var ran atomic.Int64
		err := p.Run(nil, 1000, func(worker, task int) error {
			ran.Add(1)
			if task == 3 {
				return fmt.Errorf("task 3: %w", boom)
			}
			if task > 3 {
				// Tasks after the failing one take long enough that the
				// other workers cannot drain the whole region while the
				// failing worker is descheduled between returning the
				// error and raising the stop flag.
				time.Sleep(time.Millisecond)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("size %d: err = %v, want boom", size, err)
		}
		if got := ran.Load(); got >= 1000 {
			t.Fatalf("size %d: group did not stop early (%d tasks ran)", size, got)
		}
		// The pool stays reusable after a failed region.
		if err := p.Run(nil, 10, ok(func(worker, task int) {})); err != nil {
			t.Fatalf("size %d: pool unusable after failure: %v", size, err)
		}
	}
}

func TestLowestTaskIndexErrorWins(t *testing.T) {
	// Every task fails; whatever the scheduling, the reported error must be
	// task 0's, keeping failures deterministic under parallelism.
	for _, size := range []int{1, 4, 8} {
		p := New(size)
		err := p.Run(nil, 64, func(worker, task int) error {
			return fmt.Errorf("task %d failed", task)
		})
		if err == nil || err.Error() != "task 0 failed" {
			t.Fatalf("size %d: err = %v, want task 0's", size, err)
		}
	}
}

func TestPanicContainment(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := New(size)
		err := p.Run(nil, 100, func(worker, task int) error {
			if task == 7 {
				panic("kaboom at task 7")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("size %d: worker panic did not surface as an error", size)
		}
		var pe *dterr.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("size %d: err %T is not a PanicError", size, err)
		}
		if !errors.Is(err, dterr.ErrPanic) {
			t.Fatalf("size %d: err %v is not errors.Is(ErrPanic)", size, err)
		}
		if pe.Value != "kaboom at task 7" || len(pe.Stack) == 0 {
			t.Fatalf("size %d: panic value/stack not captured: %+v", size, pe)
		}
		// Containment must leave the pool reusable.
		if err := p.Run(nil, 10, ok(func(worker, task int) {})); err != nil {
			t.Fatalf("size %d: pool unusable after panic: %v", size, err)
		}
	}
}

func TestPanicContainmentInRanges(t *testing.T) {
	p := New(3)
	err := p.RunRanges(nil, 30, 3, func(worker, lo, hi int) error {
		if lo == 0 {
			panic("range panic")
		}
		return nil
	})
	var pe *dterr.PanicError
	if !errors.As(err, &pe) || pe.Value != "range panic" {
		t.Fatalf("RunRanges panic not contained: %v", err)
	}
}

func TestContextCancellationStopsRun(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := New(size)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := p.Run(ctx, 10000, func(worker, task int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("size %d: err = %v, want context.Canceled", size, err)
		}
		if got := ran.Load(); got >= 10000 {
			t.Fatalf("size %d: cancellation did not stop dispatch (%d tasks)", size, got)
		}
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(4)
	err := p.Run(ctx, 100, func(worker, task int) error {
		t.Error("task ran under a pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if err := p.RunRanges(ctx, 100, 4, func(worker, lo, hi int) error {
		t.Error("range ran under a pre-cancelled context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunRanges err = %v", err)
	}
}

func TestTaskErrorOutranksCancellation(t *testing.T) {
	// When a task fails and the context is then cancelled, the task's error
	// must win: it names the root cause.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("real failure")
	p := New(4)
	err := p.Run(ctx, 100, func(worker, task int) error {
		if task == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
}

func TestNoGoroutineLeakOnCancelOrPanic(t *testing.T) {
	p := New(8)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p.Run(ctx, 1000, func(worker, task int) error { return nil })
		p.Run(nil, 100, func(worker, task int) error {
			if task == 3 {
				panic("leak check")
			}
			return nil
		})
	}
	// Workers join before Run returns; allow brief scheduler settling.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestInjectedPanicAtPoolTaskSite(t *testing.T) {
	defer faults.Reset()
	if err := faults.Activate("pool.task", faults.Plan{Skip: 2, Mode: faults.ModePanic}); err != nil {
		t.Fatal(err)
	}
	p := New(4)
	err := p.Run(nil, 50, func(worker, task int) error { return nil })
	if err == nil {
		t.Fatal("injected panic did not surface as an error")
	}
	var pe *dterr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not a contained panic", err)
	}
	// The error must name the hook site.
	if got := err.Error(); !errors.Is(err, dterr.ErrInjected) || !strings.Contains(got, "pool.task") {
		t.Fatalf("contained injected panic %q does not name the site", got)
	}
}
