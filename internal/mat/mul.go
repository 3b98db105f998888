package mat

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/pool"
)

// effectiveWorkers returns the number of goroutines a row-parallel kernel
// over the given work would actually use: the pool size, capped so each
// goroutine gets enough flops to amortize its startup and never more than
// one row's worth of workers.
func effectiveWorkers(size, rows, flopsPerRow int) int {
	w := size
	const minFlopsPerWorker = 1 << 16
	if w > 1 && rows > 1 && flopsPerRow > 0 {
		// rows·flopsPerRow can overflow int for very large shapes, which
		// would make maxUseful negative and silently serialize the region;
		// an overflowing product is by definition plenty of work for every
		// worker, so saturate at the pool size instead of multiplying.
		maxUseful := w
		if rows <= math.MaxInt/flopsPerRow {
			maxUseful = rows * flopsPerRow / minFlopsPerWorker
		}
		if maxUseful < w {
			w = maxUseful
		}
	}
	if w <= 1 || rows <= 1 {
		return 1
	}
	if w > rows {
		w = rows
	}
	return w
}

// parallelRows runs fn over row ranges [lo,hi) split across the pool's
// workers when the estimated work is large enough to amortize goroutines.
// Each row is computed by exactly one worker with identical arithmetic, so
// results are bit-identical for every pool size.
//
// The kernels have no error channel, so a panic contained in a pool worker
// is re-raised here on the caller's goroutine — same visible behavior as a
// serial kernel panicking, but without an unrecoverable crash on a detached
// worker; the exported core entry points convert it to a returned error.
func parallelRows(p *pool.Pool, rows int, flopsPerRow int, fn func(lo, hi int)) {
	w := effectiveWorkers(p.Size(), rows, flopsPerRow)
	if w <= 1 {
		fn(0, rows)
		return
	}
	if err := p.RunRanges(nil, rows, w, func(_, lo, hi int) error { fn(lo, hi); return nil }); err != nil {
		panic(err)
	}
}

// Mul returns a·b, single-threaded — the paper's evaluation protocol.
// Decompositions carry their own pool through core.Options and call the
// ...P variants.
func Mul(a, b *Dense) *Dense { return MulP(a, b, nil) }

// MulP returns a·b, parallelized on p (nil p runs single-threaded).
func MulP(a, b *Dense, p *pool.Pool) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	MulAddIntoP(out, a, b, p)
	return out
}

// MulInto computes dst = a·b, overwriting dst. dst must not alias a or b.
func MulInto(dst, a, b *Dense) { MulIntoP(dst, a, b, nil) }

// MulIntoP is MulInto parallelized on p (nil p runs single-threaded).
func MulIntoP(dst, a, b *Dense, p *pool.Pool) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto destination %d×%d for %d×%d product", dst.rows, dst.cols, a.rows, b.cols))
	}
	dst.Zero()
	MulAddIntoP(dst, a, b, p)
}

// MulAddInto computes dst += a·b. dst must not alias a or b.
func MulAddInto(dst, a, b *Dense) { MulAddIntoP(dst, a, b, nil) }

// MulAddIntoP computes dst += a·b with rows of the output split across p's
// workers. dst must not alias a or b.
//
// The kernel uses i-k-j loop ordering so the inner loop is a contiguous
// axpy over rows of b, which the compiler vectorizes well. Each output row
// is owned by one worker, so the result is bit-identical for any pool size.
func MulAddIntoP(dst, a, b *Dense, p *pool.Pool) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulAddInto dimension mismatch %d×%d · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulAddInto destination %d×%d for %d×%d product", dst.rows, dst.cols, a.rows, b.cols))
	}
	metrics.CountMatmul(a.rows, a.cols, b.cols)
	t0 := metrics.HistStart()
	n, inner := b.cols, a.cols
	// The single-worker path calls the range kernel directly: no closure is
	// created, keeping repeated accumulation into a preallocated dst
	// allocation-free (asserted by TestKernelsZeroAllocWithMetricsDisabled).
	if effectiveWorkers(p.Size(), a.rows, 2*inner*n) <= 1 {
		mulAddRows(dst, a, b, 0, a.rows)
		metrics.ObserveSince(metrics.HistMatmul, t0)
		return
	}
	parallelRows(p, a.rows, 2*inner*n, func(lo, hi int) {
		mulAddRows(dst, a, b, lo, hi)
	})
	metrics.ObserveSince(metrics.HistMatmul, t0)
}

// mulAddRows accumulates rows [lo,hi) of a·b into dst. Inputs small enough
// for b to sit in cache take the plain streaming kernel (the allocation-free
// hot path); larger inputs take the cache-blocked kernel in blockedMulAddRows.
// Both accumulate each output element's k-terms in the same ascending order,
// so the result is bit-identical regardless of which path (or block size)
// ran — see block.go.
func mulAddRows(dst, a, b *Dense, lo, hi int) {
	n, inner := b.cols, a.cols
	kc, nc := BlockSizes()
	if inner <= kc && n <= nc {
		mulAddRowsPlain(dst, a, b, lo, hi)
		return
	}
	blockedMulAddRows(dst, a, b, lo, hi, kc, nc)
}

// mulAddRowsPlain is the single-tile i-k-j kernel: the inner loop is a
// contiguous axpy over rows of b, which the compiler vectorizes well.
func mulAddRowsPlain(dst, a, b *Dense, lo, hi int) {
	n, inner := b.cols, a.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*inner : (i+1)*inner]
		drow := dst.data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// blockedMulAddRows is the cache-blocked kernel: it tiles k into kc-panels
// and j into nc-panels so one panel of b is reused across every row of the
// range, and packs the panel into a contiguous pooled tile when the j
// dimension is split and enough rows will amortize the copy. k-panels are
// visited in ascending order and each (i,j) element is touched by exactly
// one j-panel, so the accumulation order — and therefore every bit of the
// result — matches the plain kernel.
func blockedMulAddRows(dst, a, b *Dense, lo, hi, kc, nc int) {
	n, inner := b.cols, a.cols
	var t *tile
	if n > nc && hi-lo >= minPackRows {
		t = tilePool.Get().(*tile)
		if cap(t.buf) < kc*nc {
			t.buf = make([]float64, kc*nc)
		}
	}
	for k0 := 0; k0 < inner; k0 += kc {
		k1 := min(k0+kc, inner)
		for j0 := 0; j0 < n; j0 += nc {
			j1 := min(j0+nc, n)
			w := j1 - j0
			var panel []float64
			if t != nil {
				panel = t.buf[:(k1-k0)*w]
				for k := k0; k < k1; k++ {
					copy(panel[(k-k0)*w:(k-k0+1)*w], b.data[k*n+j0:k*n+j1])
				}
			}
			for i := lo; i < hi; i++ {
				arow := a.data[i*inner+k0 : i*inner+k1]
				drow := dst.data[i*n+j0 : i*n+j1]
				if t != nil {
					for kk, av := range arow {
						if av == 0 {
							continue
						}
						brow := panel[kk*w : (kk+1)*w]
						for j, bv := range brow {
							drow[j] += av * bv
						}
					}
					continue
				}
				for kk, av := range arow {
					if av == 0 {
						continue
					}
					brow := b.data[(k0+kk)*n+j0 : (k0+kk)*n+j1]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
	if t != nil {
		tilePool.Put(t)
	}
}

// MulTA returns aᵀ·b without materializing the transpose.
func MulTA(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulTA dimension mismatch (%d×%d)ᵀ · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.cols, b.cols)
	MulTAInto(out, a, b)
	return out
}

// MulTAInto computes dst = aᵀ·b, overwriting dst, without materializing the
// transpose or allocating. dst must be a.Cols()×b.Cols() and must not alias
// a or b. The kernel is deliberately serial: its output rows are written by
// accumulation over a's rows, so row-splitting would need a reduction.
func MulTAInto(dst, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulTAInto dimension mismatch (%d×%d)ᵀ · %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTAInto destination %d×%d for %d×%d product", dst.rows, dst.cols, a.cols, b.cols))
	}
	metrics.CountMatmul(a.cols, a.rows, b.cols)
	t0 := metrics.HistStart()
	dst.Zero()
	// dstᵀ accumulation: dst[k,j] += a[i,k]*b[i,j]; iterate i outer so both
	// reads are contiguous.
	n := b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		brow := b.data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			orow := dst.data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	metrics.ObserveSince(metrics.HistMatmul, t0)
}

// MulTB returns a·bᵀ without materializing the transpose, single-threaded.
func MulTB(a, b *Dense) *Dense { return MulTBP(a, b, nil) }

// MulTBP is MulTB parallelized on p (nil p runs single-threaded).
func MulTBP(a, b *Dense, p *pool.Pool) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTB dimension mismatch %d×%d · (%d×%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	metrics.CountMatmul(a.rows, a.cols, b.rows)
	t0 := metrics.HistStart()
	out := New(a.rows, b.rows)
	inner := a.cols
	parallelRows(p, a.rows, 2*inner*b.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.data[i*inner : (i+1)*inner]
			orow := out.data[i*b.rows : (i+1)*b.rows]
			for j := 0; j < b.rows; j++ {
				orow[j] = Dot(arow, b.data[j*inner:(j+1)*inner])
			}
		}
	})
	metrics.ObserveSince(metrics.HistMatmul, t0)
	return out
}

// Gram returns aᵀ·a, exploiting symmetry.
func Gram(a *Dense) *Dense {
	metrics.CountGram(a.rows, a.cols)
	t0 := metrics.HistStart()
	defer metrics.ObserveSince(metrics.HistMatmul, t0)
	n := a.cols
	out := New(n, n)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*n : (i+1)*n]
		for k, v := range row {
			if v == 0 {
				continue
			}
			orow := out.data[k*n : (k+1)*n]
			for j := k; j < n; j++ {
				orow[j] += v * row[j]
			}
		}
	}
	for k := 0; k < n; k++ {
		for j := k + 1; j < n; j++ {
			out.data[j*n+k] = out.data[k*n+j]
		}
	}
	return out
}

// MulVec returns a·x for a vector x of length a.Cols().
func MulVec(a *Dense, x []float64) []float64 {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d×%d · %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		out[i] = Dot(a.data[i*a.cols:(i+1)*a.cols], x)
	}
	return out
}

// MulVecT returns aᵀ·x for a vector x of length a.Rows().
func MulVecT(a *Dense, x []float64) []float64 {
	if len(x) != a.rows {
		panic(fmt.Sprintf("mat: MulVecT dimension mismatch (%d×%d)ᵀ · %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		Axpy(xv, a.data[i*a.cols:(i+1)*a.cols], out)
	}
	return out
}

// Kronecker returns the Kronecker product a ⊗ b.
func Kronecker(a, b *Dense) *Dense {
	out := New(a.rows*b.rows, a.cols*b.cols)
	for ia := 0; ia < a.rows; ia++ {
		for ja := 0; ja < a.cols; ja++ {
			av := a.data[ia*a.cols+ja]
			if av == 0 {
				continue
			}
			for ib := 0; ib < b.rows; ib++ {
				dst := out.data[(ia*b.rows+ib)*out.cols+ja*b.cols : (ia*b.rows+ib)*out.cols+(ja+1)*b.cols]
				src := b.data[ib*b.cols : (ib+1)*b.cols]
				for k, bv := range src {
					dst[k] = av * bv
				}
			}
		}
	}
	return out
}

// KronRow writes the Kronecker product of the given row vectors into dst
// (dst length must equal the product of the row lengths) and returns dst.
// Rows are combined left-to-right: dst = rows[0] ⊗ rows[1] ⊗ … .
func KronRow(dst []float64, rows ...[]float64) []float64 {
	size := 1
	for _, r := range rows {
		size *= len(r)
	}
	if len(dst) != size {
		panic(fmt.Sprintf("mat: KronRow destination length %d, need %d", len(dst), size))
	}
	if size == 0 {
		return dst
	}
	dst[0] = 1
	cur := 1
	for _, r := range rows {
		// Expand the current prefix of length cur by factor len(r),
		// building from the back so in-place expansion is safe.
		for i := cur - 1; i >= 0; i-- {
			v := dst[i]
			base := i * len(r)
			for j := len(r) - 1; j >= 0; j-- {
				dst[base+j] = v * r[j]
			}
		}
		cur *= len(r)
	}
	return dst
}
