// Package pool is the shared execution layer of a decomposition: a worker
// pool that bounds parallelism, a scratch-buffer arena that recycles large
// float64 buffers across phases and sweeps, and utilization counters for
// the metrics report.
//
// A *Pool is per-decomposition state, not a process-global knob, so two
// concurrent decompositions with different Workers settings cannot stomp
// each other: each carries its own pool through core.Options and the mat
// kernels accept it explicitly.
//
// # Determinism
//
// The pool itself never decides how work is split — callers choose task
// boundaries, and the helpers guarantee only scheduling, not arithmetic
// order. Callers achieve bit-identical results for every pool size by
// making each task own its output (e.g. one output row or one slice per
// task) so no cross-task reduction order exists. Every parallel site in
// internal/core and internal/mat follows this owner-computes rule, which is
// what upholds the core.Options.Seed contract ("results are independent of
// Workers").
//
// # Failure containment and cancellation
//
// Run and RunRanges are cancellable task groups. A task that returns an
// error — or panics — stops the group: the panic is recovered into a
// dterr.PanicError carrying the panic value and stack, remaining tasks are
// abandoned, in-flight tasks finish, and every worker goroutine is joined
// before the call returns, so a failed region never leaks goroutines or
// keeps writing into shared scratch after its caller has seen the error.
// When several tasks fail, the error of the lowest task index wins, keeping
// the reported failure deterministic under scheduling. A done context stops
// workers at the next task boundary and surfaces ctx.Err(). After any
// failure the pool itself remains fully reusable: group state is per-call.
//
// # Lifecycle
//
// A Pool has no background goroutines and needs no Close. Parallel regions
// spawn goroutines on demand (goroutine startup is far cheaper than the
// kernel work a region amortizes it over) and join before returning, so a
// Pool is trivially safe to share across sequential decompositions — the
// arena then recycles their scratch memory too.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dterr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// siteTask is the harness hook covering every task the pool dispatches; a
// ModePanic plan on it proves worker-panic containment end to end.
var siteTask = faults.NewSite("pool.task")

// Pool bounds the parallelism of one decomposition and owns its reusable
// scratch memory. A nil *Pool is valid and behaves as a single-threaded
// pool whose arena always allocates. Pools are safe for concurrent use;
// when one pool is shared by concurrent regions each region independently
// respects Size, so total goroutines can transiently exceed it.
type Pool struct {
	size int

	mu   sync.Mutex
	free map[int][][]float64

	regions atomic.Int64
	tasks   atomic.Int64
	busy    atomic.Int64 // summed worker-goroutine nanoseconds

	// tracer, when set, records one span per task of every labeled region
	// (RunLabeled/RunRangesLabeled) on the worker's lane. Atomic so it can
	// be attached while regions from another decomposition phase are live.
	tracer atomic.Pointer[trace.Tracer]
}

// New returns a pool running at most size concurrent workers per parallel
// region. size < 1 is treated as 1.
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{size: size, free: make(map[int][][]float64)}
}

// Size returns the worker bound; 1 for a nil pool.
func (p *Pool) Size() int {
	if p == nil || p.size < 1 {
		return 1
	}
	return p.size
}

// SetTracer attaches a span tracer to the pool: from then on every task of a
// labeled region records one span on its worker's lane (see internal/trace).
// nil detaches. Safe to call at any time; in-flight regions keep the tracer
// they started with.
func (p *Pool) SetTracer(t *trace.Tracer) {
	if p == nil {
		return
	}
	p.tracer.Store(t)
}

// Tracer returns the attached tracer, nil when none or for a nil pool.
func (p *Pool) Tracer() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.tracer.Load()
}

// instrument wraps one region's task function with per-task observability:
// a queue-wait observation into the pool-wait histogram and, when a tracer
// is attached, a span per task named label on lane worker+1 whose parent is
// the innermost control span open at submission. Returns fn unchanged — no
// closure, no clock reads — when both are off, which keeps unlabeled and
// uninstrumented regions at their previous cost. The span ends via defer, so
// it closes (before safeCall's recover) even when the task panics.
func (p *Pool) instrument(label string, fn func(worker, task int) error) func(worker, task int) error {
	if p == nil || label == "" {
		return fn
	}
	tr := p.tracer.Load()
	histOn := metrics.Enabled()
	if tr == nil && !histOn {
		return fn
	}
	parent := tr.CurrentID()
	submit := time.Now()
	return func(worker, task int) error {
		if histOn {
			metrics.Observe(metrics.HistPoolWait, time.Since(submit))
		}
		sp := tr.BeginWorker(parent, worker+1, label, int64(task))
		defer sp.End()
		return fn(worker, task)
	}
}

// instrumentRange is instrument for contiguous-range tasks; the span's Idx
// is the range's lower bound.
func (p *Pool) instrumentRange(label string, fn func(worker, lo, hi int) error) func(worker, lo, hi int) error {
	if p == nil || label == "" {
		return fn
	}
	tr := p.tracer.Load()
	histOn := metrics.Enabled()
	if tr == nil && !histOn {
		return fn
	}
	parent := tr.CurrentID()
	submit := time.Now()
	return func(worker, lo, hi int) error {
		if histOn {
			metrics.Observe(metrics.HistPoolWait, time.Since(submit))
		}
		sp := tr.BeginWorker(parent, worker+1, label, int64(lo))
		defer sp.End()
		return fn(worker, lo, hi)
	}
}

// RunLabeled is Run with a region label for observability: each task records
// its queue-wait latency, and when a tracer is attached each task also
// records a span named label. An empty label (or no instrumentation) makes
// it exactly Run.
func (p *Pool) RunLabeled(ctx context.Context, label string, n int, fn func(worker, task int) error) error {
	return p.Run(ctx, n, p.instrument(label, fn))
}

// RunRangesLabeled is RunRanges with a region label (see RunLabeled).
func (p *Pool) RunRangesLabeled(ctx context.Context, label string, n, w int, fn func(worker, lo, hi int) error) error {
	return p.RunRanges(ctx, n, w, p.instrumentRange(label, fn))
}

// group is the per-call failure state of one parallel region.
type group struct {
	stop atomic.Bool

	mu      sync.Mutex
	err     error
	errTask int
}

// fail records a task failure, keeping the error of the lowest task index,
// and stops the group.
func (g *group) fail(task int, err error) {
	g.mu.Lock()
	if g.err == nil || task < g.errTask {
		g.err, g.errTask = err, task
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// ctxDone reports whether ctx is cancelled; a nil ctx never is.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// safeCall runs one task with panic containment: a panic becomes a
// dterr.PanicError carrying the panic value and stack.
func safeCall(fn func(worker, task int) error, worker, task int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = dterr.NewPanic("pool worker", r)
		}
	}()
	if err := siteTask.Inject(); err != nil {
		return err
	}
	return fn(worker, task)
}

// safeCallRange is safeCall for contiguous-range tasks.
func safeCallRange(fn func(worker, lo, hi int) error, worker, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = dterr.NewPanic("pool worker", r)
		}
	}()
	if err := siteTask.Inject(); err != nil {
		return err
	}
	return fn(worker, lo, hi)
}

// Run invokes fn(worker, task) for every task in [0, n), spreading tasks
// across up to Size goroutines by work stealing, as a cancellable group: the
// first task error (or contained panic) stops dispatch, the group drains,
// and the error is returned — lowest task index winning when several tasks
// fail. A done ctx (nil means none) stops dispatch at the next task boundary
// and returns ctx.Err(). Worker ids are dense in [0, min(Size, n)) and each
// id is held by exactly one goroutine for the region's duration, so fn may
// index per-worker scratch by worker. Which worker runs which task is
// scheduling-dependent; callers needing determinism must make each task's
// result independent of its worker (see the package comment).
func (p *Pool) Run(ctx context.Context, n int, fn func(worker, task int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Size()
	if w > n {
		w = n
	}
	if p != nil {
		p.regions.Add(1)
		p.tasks.Add(int64(n))
	}
	var g group
	if w <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if ctxDone(ctx) {
				g.fail(i, ctx.Err())
				break
			}
			if err := safeCall(fn, 0, i); err != nil {
				g.fail(i, err)
				break
			}
		}
		if p != nil {
			p.busy.Add(int64(time.Since(start)))
		}
		return g.err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			start := time.Now()
			for !g.stop.Load() {
				if ctxDone(ctx) {
					// n is past every real task index, so a real task
					// failure always outranks the cancellation error.
					g.fail(n, ctx.Err())
					break
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				if err := safeCall(fn, wk, i); err != nil {
					g.fail(i, err)
					break
				}
			}
			p.busy.Add(int64(time.Since(start)))
		}(wk)
	}
	wg.Wait()
	return g.err
}

// RunRanges splits [0, n) into w contiguous ranges of near-equal length and
// invokes fn(worker, lo, hi) for each, one goroutine per range (w is capped
// at both Size and n), with the same containment and cancellation semantics
// as Run (each range is one task; cancellation is observed before a range
// starts, not inside it). Range boundaries depend only on n and w, never on
// scheduling. Row-parallel kernels use this so each output row is written by
// exactly one worker.
func (p *Pool) RunRanges(ctx context.Context, n, w int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if lim := p.Size(); w > lim {
		w = lim
	}
	if w > n {
		w = n
	}
	if p != nil {
		p.regions.Add(1)
		p.tasks.Add(int64(n))
	}
	var g group
	if w <= 1 {
		start := time.Now()
		if ctxDone(ctx) {
			g.fail(0, ctx.Err())
		} else if err := safeCallRange(fn, 0, 0, n); err != nil {
			g.fail(0, err)
		}
		if p != nil {
			p.busy.Add(int64(time.Since(start)))
		}
		return g.err
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for wk := 0; wk*chunk < n; wk++ {
		lo, hi := wk*chunk, (wk+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			start := time.Now()
			switch {
			case g.stop.Load():
			case ctxDone(ctx):
				g.fail(wk, ctx.Err())
			default:
				if err := safeCallRange(fn, wk, lo, hi); err != nil {
					g.fail(wk, err)
				}
			}
			p.busy.Add(int64(time.Since(start)))
		}(wk, lo, hi)
	}
	wg.Wait()
	return g.err
}

// Get returns a float64 buffer of exactly length n from the arena,
// allocating a fresh one when none is free. Contents are unspecified — the
// caller must overwrite or zero it. A nil pool always allocates.
func (p *Pool) Get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if p != nil {
		p.mu.Lock()
		if list := p.free[n]; len(list) > 0 {
			b := list[len(list)-1]
			p.free[n] = list[:len(list)-1]
			p.mu.Unlock()
			return b
		}
		p.mu.Unlock()
	}
	return make([]float64, n)
}

// Put returns a buffer obtained from Get to the arena for reuse. Putting a
// buffer the caller still references is a use-after-free hazard, exactly as
// with any free list. A nil pool drops the buffer.
func (p *Pool) Put(b []float64) {
	if p == nil || len(b) == 0 {
		return
	}
	p.mu.Lock()
	p.free[len(b)] = append(p.free[len(b)], b)
	p.mu.Unlock()
}

// Stats is a snapshot of a pool's lifetime utilization counters.
type Stats struct {
	// Workers is the pool's size.
	Workers int
	// Regions counts parallel regions executed (Run/RunRanges calls).
	Regions int64
	// Tasks counts tasks dispatched across all regions.
	Tasks int64
	// Busy is the summed wall time of all worker goroutines — divided by
	// region wall time it gives the effective parallel speedup.
	Busy time.Duration
}

// Stats returns a snapshot of the utilization counters; zero for nil pools.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{Workers: 1}
	}
	return Stats{
		Workers: p.Size(),
		Regions: p.regions.Load(),
		Tasks:   p.tasks.Load(),
		Busy:    time.Duration(p.busy.Load()),
	}
}
