package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dterr"
	"repro/internal/faults"
	"repro/internal/kernelsel"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/randsvd"
	"repro/internal/tensor"
)

// siteApproxSlice is the fault-injection hook covering each slice
// compression of the approximation phase (no-op unless a test arms it).
var siteApproxSlice = faults.NewSite("core.approx.slice")

// SliceSVD is the rank-r compression of one I1×I2 frontal slice:
// X_l ≈ U·diag(S)·Vᵀ.
type SliceSVD struct {
	U *mat.Dense // I1×r
	S []float64  // r, descending
	V *mat.Dense // I2×r
}

// Approximation is the output of D-Tucker's approximation phase: the
// compressed slices plus the bookkeeping needed to run the remaining phases
// and to map results back to the input's mode order. It replaces the raw
// tensor for all subsequent computation.
type Approximation struct {
	// Slices holds the per-slice rank-r SVDs, enumerated with mode 3
	// fastest (the tensor's frontal-slice order), in reordered mode space.
	Slices []SliceSVD
	// Shape is the tensor shape in reordered mode space.
	Shape []int
	// Perm maps reordered positions to original modes: reordered mode k is
	// original mode Perm[k].
	Perm []int
	// Ranks are the target core dimensionalities in reordered mode space.
	Ranks []int
	// NormX is the Frobenius norm of the input tensor, captured here so
	// the iteration phase can estimate fits without the raw data.
	NormX float64
	// SliceRank is the compression rank r.
	SliceRank int

	opts Options
	// pl is the decomposition's worker pool (see internal/pool); created by
	// Approximate, or lazily for literal-built Approximations.
	pl *pool.Pool
	// scratch caches the per-mode iteration buffers (see accScratch);
	// iterate releases them back to the pool arena when it returns.
	scratch [2]*accScratch
}

// workerPool returns the Approximation's pool, creating it from the
// options on first use. It is called from the single goroutine driving the
// decomposition, never from pool workers.
func (ap *Approximation) workerPool() *pool.Pool {
	if ap.pl == nil {
		ap.pl = ap.opts.newPool()
	}
	return ap.pl
}

// recordPoolStats snapshots the pool's utilization counters into the run's
// metrics collector (a nil collector makes this a no-op).
func (ap *Approximation) recordPoolStats() {
	col := ap.opts.Metrics
	if col == nil || ap.pl == nil {
		return
	}
	st := ap.pl.Stats()
	col.RecordPool(metrics.PoolStats{
		Workers:   st.Workers,
		Regions:   st.Regions,
		Tasks:     st.Tasks,
		BusyNanos: int64(st.Busy),
	})
}

// modeOrder returns the permutation sorting modes by decreasing
// dimensionality (stable, so equal modes keep their relative order).
func modeOrder(shape []int) []int {
	perm := make([]int, len(shape))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return shape[perm[a]] > shape[perm[b]] })
	return perm
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Approximate runs the approximation phase: it reorders modes so the two
// largest lead (unless opts.NoReorder), splits the tensor into frontal
// slices, and compresses each slice with a rank-r randomized SVD.
//
// This is the only phase that reads the raw tensor; its output is the
// compressed representation every later phase works from.
func Approximate(x *tensor.Dense, opts Options) (_ *Approximation, err error) {
	defer dterr.RecoverTo(&err, "core.Approximate")
	if x == nil {
		return nil, fmt.Errorf("core: nil tensor: %w", dterr.ErrInvalidInput)
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: D-Tucker requires an order ≥ 2 tensor, got order %d: %w",
			x.Order(), dterr.ErrInvalidInput)
	}
	if !x.IsFinite() {
		return nil, fmt.Errorf("core: input tensor contains NaN or Inf: %w", dterr.ErrNonFiniteInput)
	}
	opts, err = opts.withDefaults(x.Order())
	if err != nil {
		return nil, err
	}
	if err := opts.cancelled("approximation"); err != nil {
		return nil, err
	}

	perm := identityPerm(x.Order())
	if !opts.NoReorder {
		perm = modeOrder(x.Shape())
	}
	shape := make([]int, len(perm))
	ranks := make([]int, len(perm))
	for k, p := range perm {
		shape[k] = x.Dim(p)
		ranks[k] = opts.Ranks[p]
		if ranks[k] > shape[k] {
			return nil, fmt.Errorf("core: rank %d exceeds dimensionality %d of mode %d", ranks[k], shape[k], p)
		}
	}
	r := opts.SliceRank
	if r <= 0 {
		r = ranks[0]
		if ranks[1] > r {
			r = ranks[1]
		}
	}
	if lim := min(shape[0], shape[1]); r > lim {
		r = lim
	}

	col := opts.Metrics
	col.StartPhase(metrics.PhaseApprox)
	ap := &Approximation{
		Shape:     shape,
		Perm:      perm,
		Ranks:     ranks,
		NormX:     x.Norm(),
		SliceRank: r,
		opts:      opts,
		pl:        opts.newPool(),
	}
	if col.Tracing() {
		l := 1
		for _, d := range shape[2:] {
			l *= d
		}
		col.Tracef("approximation: compressing %d slices of %d×%d to rank %d (%d workers)",
			l, shape[0], shape[1], r, opts.Workers)
	}
	// Slices are gathered straight from x's storage (no materialized
	// permutation) and compressed.
	ap.Slices, err = compressSlices(x, perm, r, 0, opts, ap.pl)
	col.EndPhase(metrics.PhaseApprox)
	if err != nil {
		return nil, err
	}
	return ap, nil
}

// compressSlices runs the per-slice randomized SVDs in the mode order
// given by perm, one pool task per slice. Slice l always draws from a
// generator seeded Seed+l and writes only its own entry, so the result is
// identical regardless of Workers. keyBase offsets the fault-injection keys
// (streams pass their running slice count so keys stay absolute). A failed
// or cancelled region drains before returning — no slice is half-written.
func compressSlices(x *tensor.Dense, perm []int, r int, keyBase int64, opts Options, pl *pool.Pool) ([]SliceSVD, error) {
	ns := 1
	for _, p := range perm[2:] {
		ns *= x.Dim(p)
	}
	slices := make([]SliceSVD, ns)
	err := pl.RunLabeled(opts.Context, "slice", ns, func(_, l int) error {
		if err := siteApproxSlice.Inject(); err != nil {
			return fmt.Errorf("core: compressing slice %d: %w", l, err)
		}
		t0 := metrics.HistStart()
		res, kern, fell, err := sliceSVD(x.PermutedFrontalSlice(perm, l), r, l, keyBase, opts)
		metrics.ObserveSince(metrics.HistSliceSVD, t0)
		if err != nil {
			return fmt.Errorf("core: compressing slice %d: %w", l, err)
		}
		if fell {
			opts.Metrics.Tracef("slice %d: %s kernel broke down, dense fallback used", l, kern)
		}
		slices[l] = SliceSVD{U: res.U, S: res.S, V: res.V}
		metrics.CountSliceSVD()
		switch kern {
		case kernelsel.KernelExactSVD:
			metrics.ObserveSince(metrics.HistSliceSVDExact, t0)
			metrics.CountSliceKernelExact()
		case kernelsel.KernelGramEig:
			metrics.ObserveSince(metrics.HistSliceSVDGram, t0)
			metrics.CountSliceKernelGram()
		default:
			metrics.ObserveSince(metrics.HistSliceSVDRand, t0)
			metrics.CountSliceKernelRand()
		}
		return nil
	})
	if err != nil {
		return nil, wrapCancel("approximation", err)
	}
	return slices, nil
}

// sliceSVD compresses one slice to rank r with the kernel the normalized
// config selects: a forced kernel name, or — under "auto" — the cost-model
// choice, which is a pure function of (shape, rank, profile) and therefore
// identical across workers, runs, and processes. The randomized path draws
// from a per-slice seed so its result is independent of worker scheduling
// and runs behind the retry-then-dense-SVD recovery chain; the Gram path
// falls back deterministically to the exact SVD if the eigensolver fails.
// Returns the result, the kernel that was selected, and whether a fallback
// produced the result.
func sliceSVD(slice *mat.Dense, r, l int, keyBase int64, opts Options) (mat.SVDResult, kernelsel.Kernel, bool, error) {
	kern := kernelsel.KernelRandSVD
	switch opts.SliceKernel {
	case "exact":
		kern = kernelsel.KernelExactSVD
	case "gram":
		kern = kernelsel.KernelGramEig
	case "auto":
		m, n := slice.Dims()
		kern = opts.Profile.Choose(m, n, r, opts.Oversampling, opts.PowerIters)
	}
	switch kern {
	case kernelsel.KernelExactSVD:
		res, err := mat.SVD(slice)
		if err != nil {
			return mat.SVDResult{}, kern, false, err
		}
		return res.Truncate(r), kern, false, nil
	case kernelsel.KernelGramEig:
		res, err := mat.GramSVD(slice, r)
		if err == nil {
			return res, kern, false, nil
		}
		// The eigensolver failing (non-finite input, QL iteration cap) is
		// input-determined, so
		// this fallback fires for every worker count alike and results stay
		// deterministic.
		res, err = mat.SVD(slice)
		if err != nil {
			return mat.SVDResult{}, kern, true, err
		}
		return res.Truncate(r), kern, true, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed + int64(l)))
	res, fell, err := randsvd.SVDWithFallback(slice, r, randsvd.Options{
		Oversampling: opts.Oversampling,
		PowerIters:   opts.PowerIters,
		Rng:          rng,
		FaultKey:     keyBase + int64(l),
	})
	return res, kern, fell, err
}

// NumSlices returns the number of compressed slices L.
func (ap *Approximation) NumSlices() int { return len(ap.Slices) }

// StorageFloats returns the number of float64 values the compressed
// representation stores: L·(I1·r + r + I2·r). This is the preprocessing
// space cost reported in the experiments.
func (ap *Approximation) StorageFloats() int {
	total := 0
	for _, s := range ap.Slices {
		total += s.U.Rows()*s.U.Cols() + len(s.S) + s.V.Rows()*s.V.Cols()
	}
	return total
}

// sliceIndex decodes flat slice index l into the multi-index over modes
// 3..N (mode 3 fastest), mirroring tensor.Dense.SliceIndex.
func (ap *Approximation) sliceIndex(l int, idx []int) []int {
	rest := ap.Shape[2:]
	if cap(idx) < len(rest) {
		idx = make([]int, len(rest))
	}
	idx = idx[:len(rest)]
	for k, s := range rest {
		idx[k] = l % s
		l /= s
	}
	return idx
}

// ApproxRelError returns the relative Frobenius error of the slice-SVD
// approximation itself — the floor below which the Tucker fit cannot go.
func (ap *Approximation) ApproxRelError() float64 {
	if ap.NormX == 0 {
		return 0
	}
	var kept float64
	for _, s := range ap.Slices {
		for _, v := range s.S {
			kept += v * v
		}
	}
	resid2 := ap.NormX*ap.NormX - kept
	if resid2 < 0 {
		resid2 = 0
	}
	return math.Sqrt(resid2) / ap.NormX
}
