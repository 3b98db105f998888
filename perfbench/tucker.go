package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/randsvd"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// tuckerSpec is one in-process decomposition workload.
type tuckerSpec struct {
	gen  func(seed int64) *tensor.Dense
	conf core.Config
}

// tucker-iter: a 128×96×96 tensor of latent rank 8 solved for exactly 20
// sweeps, so the iteration phase is most of the time.
func runTuckerIter(cfg runConfig, tr *tracer) (*result, error) {
	return runTucker(cfg, tr, tuckerSpec{
		gen: func(seed int64) *tensor.Dense {
			return workload.LowRankNoise([]int{128, 96, 96}, 12, 0.1, seed).X
		},
		conf: core.Config{Ranks: []int{8, 8, 8}, Tol: 1e-300, MaxIters: 20},
	})
}

// tucker-approx: a 256×192×300 video-like tensor at the default tolerance
// (two sweeps), so compressing the 300×256 slices is most of the time.
func runTuckerApprox(cfg runConfig, tr *tracer) (*result, error) {
	return runTucker(cfg, tr, tuckerSpec{
		gen: func(seed int64) *tensor.Dense {
			return workload.VideoLike(256, 192, 300, seed).X
		},
		conf: core.Config{Ranks: []int{10, 10, 10}},
	})
}

// canonicalDTD serializes a decomposition with its wall-clock stats zeroed:
// the factors, core, fit, convergence flag and sweep count — everything the
// determinism contract fixes.
func canonicalDTD(d *core.Decomposition) ([]byte, error) {
	c := *d
	c.Stats = core.Stats{Iters: d.Stats.Iters}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameBytes compares got with want after applying the self-test's
// corruption hook to a copy of got.
func sameBytes(cfg runConfig, got, want []byte) bool {
	if cfg.corrupt != nil {
		got = append([]byte(nil), got...)
		cfg.corrupt(got)
	}
	return bytes.Equal(got, want)
}

// repTiming is one timed decomposition.
type repTiming struct {
	workers int
	traced  bool
	total   time.Duration
	approx  time.Duration // traced reps only
	solve   time.Duration // traced reps only
	stats   core.Stats
	alloc   uint64
}

func runTucker(cfg runConfig, tr *tracer, spec tuckerSpec) (*result, error) {
	res := newResult()
	root := tr.begin(0, "bench:"+cfg.workload, "")
	defer root.End()

	// Set-up: generate the input and run one warm-up decomposition at
	// workers=1, three times; the last input and its result (the reference
	// every timed decomposition must equal) are kept. Set-up is
	// single-threaded so the single-thread host scale applies to it.
	var (
		x       *tensor.Dense
		setups  []float64
		refDec  *core.Decomposition
		refOpts = core.Options{Config: spec.conf, Workers: 1}
	)
	hs := newHostScale()
	for i := 0; i < 3; i++ {
		hs.burst(calibBurst)
		sp := tr.begin(root.ID(), "bench:setup", "")
		t0 := time.Now()
		x = spec.gen(cfg.seed)
		dec, err := core.Decompose(x, refOpts)
		if err != nil {
			return nil, fmt.Errorf("warm-up decomposition: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.End()
		refDec = dec
	}
	ref, err := canonicalDTD(refDec)
	if err != nil {
		return nil, err
	}

	// Measured window. An untraced run spends it on workers=1, the
	// end-to-end time; every eighth repetition runs at workers=nproc for the
	// cross-worker check and alloc_mib. A traced run alternates
	// workers=nproc and workers=1, and untraced and traced pairs, so the two
	// share the machine's state and the difference is the tracing overhead.
	minReps := 2
	if cfg.traced {
		minReps = 4
	}
	var reps []repTiming
	var counts *metrics.Report
	var storage int
	var lastAp *core.Approximation
	deadline := time.Now().Add(cfg.window)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		rt := repTiming{workers: 1, traced: cfg.traced && (i/2)%2 == 1}
		if (cfg.traced && i%2 == 0) || (!cfg.traced && i%8 == 0) {
			rt.workers = cfg.nproc
		}
		opts := core.Options{Config: spec.conf, Workers: rt.workers}
		var col *metrics.Collector
		if rt.traced {
			col = metrics.New()
			opts.Metrics = col
		}
		req := fmt.Sprintf("rep-%d-w%d", i, rt.workers)
		var m0, m1 runtime.MemStats
		// Start every repetition from a collected heap, so when the collector
		// runs inside the timed call does not depend on the previous rep.
		runtime.GC()
		if rt.workers == 1 {
			hs.burst(calibBurst)
		}
		runtime.ReadMemStats(&m0)
		sp := tr.begin(root.ID(), "core:decompose", req)
		var dec *core.Decomposition
		t0 := time.Now()
		if rt.traced {
			asp := tr.begin(sp.ID(), "core:approximate", req)
			ap, err := core.Approximate(x, opts)
			rt.approx = time.Since(t0)
			asp.End()
			if err == nil {
				ssp := tr.begin(sp.ID(), "core:solve", req)
				t1 := time.Now()
				dec, err = ap.Decompose()
				rt.solve = time.Since(t1)
				ssp.End()
				storage = ap.StorageFloats()
				lastAp = ap
			}
			if err != nil {
				return nil, fmt.Errorf("decomposition: %w", err)
			}
		} else {
			dec, err = core.Decompose(x, opts)
			if err != nil {
				return nil, fmt.Errorf("decomposition: %w", err)
			}
		}
		rt.total = time.Since(t0)
		sp.End()
		runtime.ReadMemStats(&m1)
		if col != nil {
			metrics.SetEnabled(false) // keep untraced reps free of counter work
			if counts == nil && rt.workers == cfg.nproc {
				r := col.Report()
				counts = &r
			}
		}
		rt.alloc = m1.TotalAlloc - m0.TotalAlloc
		rt.stats = dec.Stats
		res.attempted++
		got, err := canonicalDTD(dec)
		if err != nil {
			return nil, err
		}
		if !sameBytes(cfg, got, ref) {
			res.fail("%s: result at workers=%d differs from the workers=1 reference", req, rt.workers)
		}
		reps = append(reps, rt)
	}

	pick := func(workers int, traced bool, f func(repTiming) float64) []float64 {
		var xs []float64
		for _, r := range reps {
			if r.workers == workers && r.traced == traced {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	total := func(r repTiming) float64 { return r.total.Seconds() }
	res.samples["decompose_s"] = pick(cfg.nproc, false, total)
	res.samples["decompose_1w_s"] = pick(1, false, total)
	res.samples["setup_s"] = setups
	res.scaleTimes(hs)
	res.metrics["alloc_mib"] = median(pick(cfg.nproc, false, func(r repTiming) float64 { return float64(r.alloc) / mib }))

	if !cfg.traced {
		return res, nil
	}
	m := res.metrics
	tracedN := pick(cfg.nproc, true, total)
	m["bench.trace_overhead_frac"] = median(tracedN)/m["bench.wall_decompose_s"] - 1
	m["core.approximate_s"] = median(pick(cfg.nproc, true, func(r repTiming) float64 { return r.approx.Seconds() }))
	m["core.approximate_1w_s"] = median(pick(1, true, func(r repTiming) float64 { return r.approx.Seconds() }))
	m["core.solve_s"] = median(pick(cfg.nproc, true, func(r repTiming) float64 { return r.solve.Seconds() }))
	m["core.init_s"] = median(pick(cfg.nproc, true, func(r repTiming) float64 { return r.stats.InitTime.Seconds() }))
	iterN := median(pick(cfg.nproc, true, func(r repTiming) float64 { return r.stats.IterTime.Seconds() }))
	iter1 := median(pick(1, true, func(r repTiming) float64 { return r.stats.IterTime.Seconds() }))
	m["core.iter_s"] = iterN
	m["core.sweeps"] = float64(refDec.Stats.Iters)
	m["core.iter_per_sweep_ms"] = iterN * 1e3 / float64(refDec.Stats.Iters)
	m["core.iter_speedup"] = iter1 / iterN
	m["core.approx_speedup"] = m["core.approximate_1w_s"] / m["core.approximate_s"]
	m["core.storage_mib"] = float64(storage*8) / mib
	if counts != nil {
		c := counts.Total.Counters
		m["core.peak_heap_mib"] = float64(counts.Total.HeapBytes) / mib
		m["mat.matmul_calls"] = float64(c.MatmulCalls)
		m["mat.matmul_gflop"] = float64(c.MatmulFlops) / 1e9
		m["mat.qr_calls"] = float64(c.QRCalls)
		m["mat.svd_calls"] = float64(c.SVDCalls)
		m["randsvd.calls"] = float64(c.RandSVDCalls)
		m["randsvd.retries"] = float64(c.RandSVDRetries)
		m["randsvd.fallbacks"] = float64(c.RandSVDFallbacks)
		m["kernelsel.randsvd"] = float64(c.SliceKernelRand)
		m["kernelsel.exact"] = float64(c.SliceKernelExact)
		m["kernelsel.gram"] = float64(c.SliceKernelGram)
	}
	replayKernels(cfg, tr, root.ID(), x, lastAp, m)
	return res, nil
}

// replayKernels times the kernels the decomposition spends its time in, on
// the workload's own shapes (in D-Tucker's reordered mode space: I1 ≥ I2 are
// the slice dimensions, L the slice count, J the target ranks):
//
//   - mat.muladd_gflops: MulAddIntoP on the randomized range sketch of one
//     slice, (I1×I2)·(I2×(r+5)), the largest multiply either phase runs;
//   - mat.leading_ms: LeadingLeft(Y₍₁₎, J1) with Y₍₁₎ of shape I1×(J2·…·JN),
//     the per-sweep factor update of mode 1;
//   - randsvd.slice_ms: SVDWithFallback on the first real slice at the
//     slice rank, one unit of the approximation phase.
func replayKernels(cfg runConfig, tr *tracer, parent int64, x *tensor.Dense, ap *core.Approximation, m map[string]float64) {
	i1, i2 := ap.Shape[0], ap.Shape[1]
	r := ap.SliceRank
	cols := 1
	for _, j := range ap.Ranks[1:] {
		cols *= j
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	randm := func(rows, cols int) *mat.Dense {
		a := mat.New(rows, cols)
		d := a.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return a
	}
	const budget = 300 * time.Millisecond

	pl := pool.New(cfg.nproc)
	a, b, dst := randm(i1, i2), randm(i2, r+5), mat.New(i1, r+5)
	sp := tr.begin(parent, "mat:muladd", "")
	n, t0 := 0, time.Now()
	for n < 3 || time.Since(t0) < budget {
		mat.MulAddIntoP(dst, a, b, pl)
		n++
	}
	el := time.Since(t0)
	sp.End()
	m["mat.muladd_gflops"] = 2 * float64(i1*i2*(r+5)) * float64(n) / el.Seconds() / 1e9

	y := randm(i1, cols)
	var ts []float64
	sp = tr.begin(parent, "mat:leading", "")
	for t0 = time.Now(); len(ts) < 3 || time.Since(t0) < budget; {
		t1 := time.Now()
		if _, err := mat.LeadingLeft(y, ap.Ranks[0], mat.LeadingAuto); err != nil {
			break
		}
		ts = append(ts, millis(time.Since(t1)))
	}
	sp.End()
	m["mat.leading_ms"] = median(ts)

	slice := mat.New(i1, i2)
	idx := make([]int, len(ap.Shape))
	for i := 0; i < i1; i++ {
		for j := 0; j < i2; j++ {
			idx[ap.Perm[0]], idx[ap.Perm[1]] = i, j
			slice.Set(i, j, x.At(idx...))
		}
	}
	ts = ts[:0]
	sp = tr.begin(parent, "randsvd:slice", "")
	for t0 = time.Now(); len(ts) < 3 || time.Since(t0) < budget; {
		t1 := time.Now()
		_, _, err := randsvd.SVDWithFallback(slice, r, randsvd.Options{Rng: rand.New(rand.NewSource(0))})
		if err != nil {
			break
		}
		ts = append(ts, millis(time.Since(t1)))
	}
	sp.End()
	m["randsvd.slice_ms"] = median(ts)
}
