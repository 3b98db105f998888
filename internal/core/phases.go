package core

import (
	"fmt"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/randsvd"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Fault-injection hooks at the remaining phase boundaries (no-ops unless a
// test arms them): one per factor computed during initialization, one per
// ALS sweep.
var (
	siteInitFactor = faults.NewSite("core.init.factor")
	siteIterSweep  = faults.NewSite("core.iter.sweep")
)

// initFactors runs the initialization phase in reordered mode space:
// A(1) from the stacked [U_l·S_l], A(2) from the stacked [V_l·S_l], and
// the remaining modes from a truncated HOSVD of the projected tensor W.
// Cancellation is observed between factors.
func (ap *Approximation) initFactors() ([]*mat.Dense, error) {
	col := ap.opts.Metrics
	col.StartPhase(metrics.PhaseInit)
	defer col.EndPhase(metrics.PhaseInit)
	tr := col.Tracer()
	order := len(ap.Shape)
	i1, i2 := ap.Shape[0], ap.Shape[1]
	r := ap.SliceRank
	L := len(ap.Slices)
	rng := rand.New(rand.NewSource(ap.opts.Seed ^ 0x5eed1217))

	factors := make([]*mat.Dense, order)

	// Per-factor spans end on the happy path; error returns leave them to be
	// force-closed by the phase span the deferred EndPhase ends.

	// A(1) ← leading J1 left singular vectors of [U_1S_1 … U_LS_L].
	sp := tr.BeginIdx("factor", 1)
	if err := ap.initBoundary(); err != nil {
		return nil, err
	}
	y1 := mat.New(i1, L*r)
	for l, s := range ap.Slices {
		writeScaledBlock(y1, s.U, s.S, l*r)
	}
	a1, err := leadingOfStack(y1, ap.Ranks[0], rng, ap.opts)
	if err != nil {
		return nil, fmt.Errorf("core: initializing mode-1 factor: %w", err)
	}
	factors[0] = a1
	sp.End()

	// A(2) ← leading J2 left singular vectors of [V_1S_1 … V_LS_L].
	sp = tr.BeginIdx("factor", 2)
	if err := ap.initBoundary(); err != nil {
		return nil, err
	}
	y2 := mat.New(i2, L*r)
	for l, s := range ap.Slices {
		writeScaledBlock(y2, s.V, s.S, l*r)
	}
	a2, err := leadingOfStack(y2, ap.Ranks[1], rng, ap.opts)
	if err != nil {
		return nil, fmt.Errorf("core: initializing mode-2 factor: %w", err)
	}
	factors[1] = a2
	sp.End()

	// Remaining modes from the small projected tensor W (truncated HOSVD).
	if order > 2 {
		w, err := ap.projectedTensor("initialization", a1, a2)
		if err != nil {
			return nil, err
		}
		for n := 2; n < order; n++ {
			sp = tr.BeginIdx("factor", int64(n+1))
			if err := ap.initBoundary(); err != nil {
				return nil, err
			}
			f, err := mat.LeadingLeft(w.Unfold(n), ap.Ranks[n], mat.LeadingAuto)
			if err != nil {
				return nil, fmt.Errorf("core: initializing mode-%d factor: %w", n+1, err)
			}
			factors[n] = f
			sp.End()
		}
	}
	return factors, nil
}

// initBoundary is the per-factor boundary of the initialization phase:
// cancellation check plus the core.init.factor fault hook.
func (ap *Approximation) initBoundary() error {
	if err := ap.opts.cancelled("initialization"); err != nil {
		return err
	}
	if err := siteInitFactor.Inject(); err != nil {
		return fmt.Errorf("core: initialization: %w", err)
	}
	return nil
}

// writeScaledBlock writes u·diag(s) into dst starting at column col0.
func writeScaledBlock(dst, u *mat.Dense, s []float64, col0 int) {
	rows, r := u.Dims()
	for i := 0; i < rows; i++ {
		urow := u.Row(i)
		drow := dst.Row(i)
		for j := 0; j < r; j++ {
			drow[col0+j] = urow[j] * s[j]
		}
	}
}

// leadingOfStack extracts k leading left singular vectors of the (typically
// very wide) stacked matrix. A randomized SVD keeps this O(rows·cols·k)
// instead of the O(rows²·cols) an exact factorization would cost; for small
// stacks the exact path is used directly.
func leadingOfStack(y *mat.Dense, k int, rng *rand.Rand, opts Options) (*mat.Dense, error) {
	rows, cols := y.Dims()
	if cols <= 3*k+8 || rows*cols < 1<<14 {
		return mat.LeadingLeft(y, k, mat.LeadingAuto)
	}
	// Stack keys are negative so keyed fault plans aimed at slice indices
	// (which are ≥ 0) never hit the initialization stacks.
	res, _, err := randsvd.SVDWithFallback(y, k, randsvd.Options{
		Oversampling: opts.Oversampling,
		PowerIters:   opts.PowerIters,
		Rng:          rng,
		FaultKey:     -1,
	})
	if err != nil {
		return nil, err
	}
	if res.U.Cols() < k {
		// Degenerate stack; fall back to the exact path, which pads with
		// an orthonormal completion.
		return mat.LeadingLeft(y, k, mat.LeadingJacobi)
	}
	return res.U, nil
}

// projectedTensor builds W ∈ R^{J1×J2×I3×…} with frontal slices
// W_l = (A(1)ᵀU_l)·diag(S_l)·(V_lᵀA(2)) — the whole input projected into
// the current mode-1/2 subspaces, computed purely from the compressed
// slices.
func (ap *Approximation) projectedTensor(phase string, a1, a2 *mat.Dense) (*tensor.Dense, error) {
	shape := append([]int{a1.Cols(), a2.Cols()}, ap.Shape[2:]...)
	w := tensor.New(shape...)
	// One pool task per slice; slice l writes only its own frontal block of
	// w, so the result is identical for every pool size. phase tags a
	// cancellation observed inside the region (initialization and iteration
	// both build projected tensors).
	pl := ap.workerPool()
	sp := ap.opts.Metrics.Tracer().Begin("project")
	defer sp.End()
	err := pl.RunLabeled(ap.opts.Context, "project-slice", len(ap.Slices), func(_, l int) error {
		ap.projectSlice(w, l, a1, a2)
		return nil
	})
	if err != nil {
		return nil, wrapCancel(phase, err)
	}
	return w, nil
}

// projectSlice computes W_l = (A(1)ᵀU_l)·diag(S_l)·(V_lᵀA(2)) and stores it
// as frontal slice l. The inner product runs single-threaded (nil pool):
// projectSlice already executes inside a slice-parallel region.
func (ap *Approximation) projectSlice(w *tensor.Dense, l int, a1, a2 *mat.Dense) {
	s := &ap.Slices[l]
	left := mat.MulTA(a1, s.U) // J1×r
	scaleCols(left, s.S)
	right := mat.MulTA(s.V, a2) // r×J2
	w.SetFrontalSlice(l, mat.MulP(left, right, nil))
}

func scaleCols(m *mat.Dense, s []float64) {
	rows, cols := m.Dims()
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := 0; j < cols; j++ {
			row[j] *= s[j]
		}
	}
}

// accScratch holds the reusable buffers of one accumulateSliceMode target
// (mode 1 or mode 2). All float64 storage comes from the pool arena, so
// steady-state sweeps allocate nothing; iterate releases it when it returns.
type accScratch struct {
	rows, blk, c int

	y *mat.Dense // rows × blk·c accumulation output, reused every sweep

	// Phase A outputs, one owner per slice: t[l] is the r_l×blk projection
	// diag(S_l)·(V_lᵀA(2)) (resp. diag(S_l)·(U_lᵀA(1))), and w[l·c:(l+1)·c]
	// is slice l's Kronecker weight row over the trailing factors.
	t []*mat.Dense
	w []float64

	// Per-worker scratch, indexed by the dense worker ids the pool hands
	// out: a blk-length product row for phase B, and the multi-index plus
	// Kronecker row pointers for phase A.
	prow [][]float64
	idx  [][]int
	kron [][][]float64
}

// accScratchFor returns the cached scratch for mode, rebuilding it from the
// pool arena when the problem dimensions changed since the last sweep.
func (ap *Approximation) accScratchFor(mode int, factors []*mat.Dense) *accScratch {
	pl := ap.workerPool()
	order := len(ap.Shape)
	c := 1
	for k := 2; k < order; k++ {
		c *= factors[k].Cols()
	}
	var rows, blk int
	if mode == 0 {
		rows, blk = ap.Shape[0], factors[1].Cols()
	} else {
		rows, blk = ap.Shape[1], factors[0].Cols()
	}
	L := len(ap.Slices)
	if sc := ap.scratch[mode]; sc != nil {
		if sc.rows == rows && sc.blk == blk && sc.c == c && len(sc.t) == L && len(sc.prow) >= pl.Size() {
			return sc
		}
		ap.releaseScratchMode(mode)
	}
	sc := &accScratch{rows: rows, blk: blk, c: c}
	sc.y = mat.NewFromData(rows, blk*c, pl.Get(rows*blk*c))
	sc.t = make([]*mat.Dense, L)
	for l := range sc.t {
		// Slice SVDs of degenerate slices can carry fewer than SliceRank
		// columns, so each projection is sized from its own slice.
		r := ap.Slices[l].V.Cols()
		if mode == 1 {
			r = ap.Slices[l].U.Cols()
		}
		sc.t[l] = mat.NewFromData(r, blk, pl.Get(r*blk))
	}
	sc.w = pl.Get(L * c)
	nw := pl.Size()
	sc.prow = make([][]float64, nw)
	sc.idx = make([][]int, nw)
	sc.kron = make([][][]float64, nw)
	for k := 0; k < nw; k++ {
		sc.prow[k] = pl.Get(blk)
		sc.idx[k] = make([]int, order-2)
		sc.kron[k] = make([][]float64, order-2)
	}
	ap.scratch[mode] = sc
	return sc
}

// releaseScratchMode returns one mode's scratch buffers to the pool arena.
func (ap *Approximation) releaseScratchMode(mode int) {
	sc := ap.scratch[mode]
	if sc == nil {
		return
	}
	pl := ap.workerPool()
	pl.Put(sc.y.Data())
	for _, t := range sc.t {
		pl.Put(t.Data())
	}
	pl.Put(sc.w)
	for _, b := range sc.prow {
		pl.Put(b)
	}
	ap.scratch[mode] = nil
}

// releaseScratch returns all iteration scratch to the pool arena, so a
// shared pool can recycle it into the next decomposition or sweep shape.
func (ap *Approximation) releaseScratch() {
	for mode := range ap.scratch {
		ap.releaseScratchMode(mode)
	}
}

// accProjectSlice runs phase A of the accumulation for slice l: the small
// projection t_l and the Kronecker weight row. It writes only slice l's
// scratch entries, so phase A tasks are independent of worker scheduling.
func (ap *Approximation) accProjectSlice(sc *accScratch, mode int, factors []*mat.Dense, worker, l int) {
	s := &ap.Slices[l]
	t := sc.t[l]
	if mode == 0 {
		mat.MulTAInto(t, s.V, factors[1]) // r×J2
	} else {
		mat.MulTAInto(t, s.U, factors[0]) // r×J1
	}
	scaleRows(t, s.S)
	// Phase B applies U_l·t_l (resp. V_l·t_l) row by row; account for it
	// here, once per slice, so counters stay independent of Workers.
	metrics.CountMatmul(sc.rows, t.Rows(), sc.blk)
	// Kronecker row over the trailing factors with mode 3 fastest: KronRow
	// makes its *last* argument fastest, so feed rows in reverse mode order.
	idx := ap.sliceIndex(l, sc.idx[worker])
	kron := sc.kron[worker]
	for k := range kron {
		kron[len(kron)-1-k] = factors[2+k].Row(idx[k])
	}
	mat.KronRow(sc.w[l*sc.c:(l+1)*sc.c], kron...)
}

// accRowRange runs phase B for output rows [lo, hi): row i accumulates, over
// slices in ascending order, the slice's projected row scaled by its
// Kronecker weights. Each output row is owned by exactly one worker and the
// per-row arithmetic never depends on the range split, so the result is
// bit-identical for every pool size — and to the serial evaluation.
func (ap *Approximation) accRowRange(sc *accScratch, mode, worker, lo, hi int) {
	blk, c := sc.blk, sc.c
	prow := sc.prow[worker]
	for i := lo; i < hi; i++ {
		yrow := sc.y.Row(i)
		for j := range yrow {
			yrow[j] = 0
		}
		for l := range ap.Slices {
			s := &ap.Slices[l]
			f := s.U
			if mode == 1 {
				f = s.V
			}
			frow := f.Row(i)
			t := sc.t[l]
			// prow = frow·t_l with the same i-k-j ordering and zero
			// skipping as the mat kernels.
			for j := range prow {
				prow[j] = 0
			}
			for k, av := range frow {
				if av == 0 {
					continue
				}
				trow := t.Row(k)
				for j, tv := range trow {
					prow[j] += av * tv
				}
			}
			wl := sc.w[l*c : (l+1)*c]
			for cc, wc := range wl {
				if wc == 0 {
					continue
				}
				dst := yrow[cc*blk : (cc+1)*blk]
				for j, pv := range prow {
					dst[j] += wc * pv
				}
			}
		}
	}
}

// accumulateSliceMode computes the mode-1 (mode = 0) or mode-2 (mode = 1)
// ALS matrix Y_(n) = X ×_{k≠n} A(k)ᵀ unfolded along mode n, evaluated
// through the compressed slices:
//
//	mode 0: Y = Σ_l [U_l·diag(S)·(V_lᵀA(2))] ⊗ kronrow_l  (I1 × J2·C)
//	mode 1: Y = Σ_l [V_l·diag(S)·(U_lᵀA(1))] ⊗ kronrow_l  (I2 × J1·C)
//
// where kronrow_l is the Kronecker product of the rows of A(3..N) selected
// by slice l's multi-index and C = ∏_{k≥3} J_k.
//
// The work is split in two pool phases. Phase A computes each slice's small
// projection and weight row, one task per slice, each writing only its own
// scratch entries. Phase B accumulates the output, one owner per row, with
// slices visited in ascending order inside every row. No cross-worker
// reduction exists in either phase, so the result is bit-identical for every
// pool size (the Options.Seed contract) — including the serial path, which
// runs the same loops inline without spawning goroutines or closures.
//
// The returned matrix is pool-owned scratch: it is valid until the next
// accumulateSliceMode call for the same mode (callers consume it
// immediately via mat.LeadingLeft).
func (ap *Approximation) accumulateSliceMode(mode int, factors []*mat.Dense) (*mat.Dense, error) {
	sc := ap.accScratchFor(mode, factors)
	pl := ap.workerPool()
	ctx := ap.opts.Context
	L := len(ap.Slices)
	if pl.Size() <= 1 {
		// Inline serial path: same loops, no closures, so steady-state
		// sweeps stay allocation-free. Cancellation is still observed at
		// every slice boundary.
		for l := 0; l < L; l++ {
			if err := ap.opts.cancelled("iteration"); err != nil {
				return nil, err
			}
			ap.accProjectSlice(sc, mode, factors, 0, l)
		}
		if err := ap.opts.cancelled("iteration"); err != nil {
			return nil, err
		}
		ap.accRowRange(sc, mode, 0, 0, sc.rows)
		return sc.y, nil
	}
	err := pl.RunLabeled(ctx, "acc-slice", L, func(worker, l int) error {
		ap.accProjectSlice(sc, mode, factors, worker, l)
		return nil
	})
	if err == nil {
		err = pl.RunRangesLabeled(ctx, "acc-rows", sc.rows, pl.Size(), func(worker, lo, hi int) error {
			ap.accRowRange(sc, mode, worker, lo, hi)
			return nil
		})
	}
	if err != nil {
		return nil, wrapCancel("iteration", err)
	}
	return sc.y, nil
}

func scaleRows(m *mat.Dense, s []float64) {
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[i]
		}
	}
}

// iterate runs the iteration phase: ALS sweeps over all modes evaluated on
// the compressed slices, stopping when the fit change drops below Tol or
// MaxIters is reached. It returns the core, the fit estimate, the number of
// sweeps executed, and whether the tolerance was actually reached —
// converged == false means the sweep budget ran out with the fit still
// moving (callers surface this instead of silently reporting MaxIters
// sweeps as if the run had settled).
//
// startSweep and prevFit exist for checkpoint resume: a fresh run passes
// (1, 0); a resumed run passes the checkpointed sweep + 1 and the
// checkpointed fit, so the convergence test |fit − prevFit| < Tol sees
// exactly the values the uninterrupted run would have — the resumed
// trajectory is bit-identical, decisions included.
func (ap *Approximation) iterate(factors []*mat.Dense, startSweep int, prevFit float64) (*tensor.Dense, float64, int, bool, error) {
	col := ap.opts.Metrics
	col.StartPhase(metrics.PhaseIter)
	defer col.EndPhase(metrics.PhaseIter)
	defer ap.releaseScratch()
	tr := col.Tracer()
	pl := ap.workerPool()
	order := len(ap.Shape)
	fingerprint := ""
	if ap.opts.CheckpointSink != nil {
		fingerprint = ap.opts.Config.Fingerprint()
	}
	var (
		core      *tensor.Dense
		fit       float64
		iters     int
		converged bool
	)
	// Sweep and mode spans end on the happy path; any error return leaves
	// them to be force-closed by the phase span the deferred EndPhase ends,
	// so the trace stays balanced on every exit.
	for iters = startSweep; iters <= ap.opts.MaxIters; iters++ {
		sweep := tr.BeginIdx("sweep", int64(iters))
		// Sweep boundary: a cancelled run stops here, before the next sweep
		// touches any scratch, and the core.iter.sweep fault hook fires.
		if err := ap.opts.cancelled("iteration"); err != nil {
			return nil, 0, iters, false, err
		}
		if err := siteIterSweep.Inject(); err != nil {
			return nil, 0, iters, false, fmt.Errorf("core: sweep %d: %w", iters, err)
		}
		// Modes 1 and 2: leading left singular vectors of the slice-based
		// accumulation.
		for mode := 0; mode < 2; mode++ {
			msp := tr.BeginIdx("mode", int64(mode+1))
			y, err := ap.accumulateSliceMode(mode, factors)
			if err != nil {
				return nil, 0, iters, false, err
			}
			f, err := mat.LeadingLeft(y, ap.Ranks[mode], mat.LeadingAuto)
			if err != nil {
				return nil, 0, iters, false, fmt.Errorf("core: updating mode-%d factor: %w", mode+1, err)
			}
			factors[mode] = f
			msp.End()
		}
		// Remaining modes and the core from the small projected tensor.
		w, err := ap.projectedTensor("iteration", factors[0], factors[1])
		if err != nil {
			return nil, 0, iters, false, err
		}
		for n := 2; n < order; n++ {
			msp := tr.BeginIdx("mode", int64(n+1))
			y := w
			for k := 2; k < order; k++ {
				if k == n {
					continue
				}
				y = y.ModeProductP(factors[k].T(), k, pl)
			}
			f, err := mat.LeadingLeft(y.Unfold(n), ap.Ranks[n], mat.LeadingAuto)
			if err != nil {
				return nil, 0, iters, false, fmt.Errorf("core: updating mode-%d factor: %w", n+1, err)
			}
			factors[n] = f
			msp.End()
		}
		csp := tr.Begin("core-update")
		core = w
		for k := 2; k < order; k++ {
			core = core.ModeProductP(factors[k].T(), k, pl)
		}

		fit = tucker.FitFromCore(ap.NormX, core.Norm())
		csp.End()
		col.RecordFit(iters, fit)
		// The convergence decision is made before the checkpoint is cut so a
		// terminal sweep can be marked Done — a resume from it short-circuits
		// straight to the result instead of re-running a sweep the original
		// run never ran.
		conv := iters > 1 && abs(fit-prevFit) < ap.opts.Tol
		if sink := ap.opts.CheckpointSink; sink != nil {
			t0 := metrics.HistStart()
			err := sink(&Checkpoint{
				Sweep:       iters,
				Fit:         fit,
				Done:        conv || iters == ap.opts.MaxIters,
				Converged:   conv,
				Fingerprint: fingerprint,
				Factors:     factors,
				Core:        core,
			})
			if err != nil {
				return nil, 0, iters, false, fmt.Errorf("core: sweep %d checkpoint: %w", iters, err)
			}
			metrics.ObserveSince(metrics.HistCheckpointWrite, t0)
		}
		sweep.End()
		if conv {
			converged = true
			break
		}
		prevFit = fit
	}
	if !converged {
		// The loop fell off the end: every budgeted sweep ran.
		iters = ap.opts.MaxIters
	}
	return core, fit, iters, converged, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
