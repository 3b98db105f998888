// Package tuckersketch implements the two TensorSketch-based Tucker
// algorithms of Malik & Becker ("Low-Rank Tucker Decomposition of Large
// Tensors Using TensorSketch", NeurIPS 2018):
//
//   - Tucker-ts: each ALS subproblem is solved as a sketched least-squares
//     problem, using unfolding sketches Z_n = TS(X_(n)ᵀ) computed in one
//     preprocessing pass and the FFT-combined sketch of the Kronecker
//     factor product.
//   - Tucker-ttmts: the cheaper variant that replaces the sketched
//     least-squares solves with sketched TTM products — the mode-n design
//     matrix Zᵀ_n·TS(⊗A) approximates X_(n)(⊗A) directly (E[SᵀS] = I), so
//     factors come from an SVD and the core from one sketched projection.
//
// Both share the property D-Tucker's evaluation highlights: their
// preprocessing (the Z_n) is not separable along any single mode, and the
// sketch dimensions needed for accuracy grow with J^{N-1}, which is what
// makes them lose to slice-based compression on dense tensors.
//
// Substitution notes (documented in DESIGN.md): large sketched
// least-squares core solves use CGLS instead of dense QR (same minimizer,
// iterative), and sketch dimensions default to 4·J^{N-1} / 4·J^N rounded up
// to powers of two rather than the paper's larger constants, to keep pure-Go
// runtimes proportionate. Both are knobs in Options.
package tuckersketch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/mat"
	"repro/internal/sketch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Algorithm selects the Malik–Becker variant.
type Algorithm int

const (
	// TS is Tucker-ts: sketched least-squares ALS.
	TS Algorithm = iota
	// TTMTS is Tucker-ttmts: sketched TTM ALS.
	TTMTS
)

func (a Algorithm) String() string {
	if a == TTMTS {
		return "tucker-ttmts"
	}
	return "tucker-ts"
}

// Options configures both algorithms.
type Options struct {
	// Ranks holds the target core dimensionalities, one per mode. Required.
	Ranks []int
	// K1 is the unfolding sketch dimension (rounded up to a power of two).
	// Zero selects 4·max_n ∏_{k≠n} J_k.
	K1 int
	// K2 is the vectorization sketch dimension (rounded up to a power of
	// two). Zero selects 4·∏ J_k.
	K2 int
	// Tol stops iterating when the fit-proxy change is below it
	// (default 1e-4).
	Tol float64
	// MaxIters caps the ALS sweeps (default 50).
	MaxIters int
	// Seed drives all sketches and the initialization.
	Seed int64
	// CGIters caps the CGLS iterations for large core solves (default 60).
	CGIters int
}

// Result is the outcome of a run.
type Result struct {
	tucker.Model
	Algorithm  Algorithm
	Iters      int
	K1, K2     int
	SketchTime time.Duration
	IterTime   time.Duration
}

// Decompose runs the selected algorithm on x.
func Decompose(x *tensor.Dense, alg Algorithm, opts Options) (*Result, error) {
	order := x.Order()
	if len(opts.Ranks) != order {
		return nil, fmt.Errorf("tuckersketch: %d ranks for an order-%d tensor", len(opts.Ranks), order)
	}
	prodAll := 1
	for n, j := range opts.Ranks {
		if j <= 0 || j > x.Dim(n) {
			return nil, fmt.Errorf("tuckersketch: rank %d invalid for mode %d of dimensionality %d", j, n, x.Dim(n))
		}
		prodAll *= j
	}
	maxRest := 0
	for n := range opts.Ranks {
		rest := prodAll / opts.Ranks[n]
		if rest > maxRest {
			maxRest = rest
		}
	}
	if opts.K1 == 0 {
		opts.K1 = 4 * maxRest
	}
	if opts.K2 == 0 {
		opts.K2 = 4 * prodAll
	}
	m1 := sketch.NextPow2(opts.K1)
	m2 := sketch.NextPow2(opts.K2)
	if opts.Tol == 0 {
		opts.Tol = 1e-4
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 50
	}
	if opts.CGIters == 0 {
		opts.CGIters = 60
	}

	t0 := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	ts := sketch.SketchTensor(x, m1, m2, rng)
	sketchTime := time.Since(t0)

	t1 := time.Now()
	factors := make([]*mat.Dense, order)
	for n := range factors {
		factors[n] = mat.RandOrthonormal(x.Dim(n), opts.Ranks[n], rng)
	}
	core := tensor.New(opts.Ranks...)
	normX := x.Norm()
	if alg == TS {
		// Tucker-ts needs a non-degenerate core before the first factor
		// sweep: solve the sketched core least squares once from the
		// random factors.
		if err := solveCoreTS(ts, factors, &core, opts); err != nil {
			return nil, err
		}
	}

	var (
		iters     int
		prevProxy = math.Inf(1)
	)
	for iters = 1; iters <= opts.MaxIters; iters++ {
		var err error
		if alg == TS {
			err = sweepTS(ts, factors, &core, opts)
		} else {
			err = sweepTTMTS(ts, factors, &core, opts)
		}
		if err != nil {
			return nil, err
		}
		proxy := tucker.FitFromCore(normX, core.Norm())
		if iters > 1 && math.Abs(proxy-prevProxy) < opts.Tol {
			break
		}
		prevProxy = proxy
	}
	if iters > opts.MaxIters {
		iters = opts.MaxIters
	}
	return &Result{
		Model:      tucker.Model{Core: core, Factors: factors},
		Algorithm:  alg,
		Iters:      iters,
		K1:         m1,
		K2:         m2,
		SketchTime: sketchTime,
		IterTime:   time.Since(t1),
	}, nil
}

// sweepTS performs one Tucker-ts ALS sweep: per-mode sketched least squares
// for the factors, then a sketched least squares for the core.
func sweepTS(ts *sketch.TensorSketches, factors []*mat.Dense, core **tensor.Dense, opts Options) error {
	order := len(factors)
	for n := 0; n < order; n++ {
		t := kronSketchSkip(ts, factors, n, ts.M1, true) // m1 × ∏_{k≠n}J_k
		design := mat.Mul(t, (*core).Unfold(n).T())      // m1 × J_n
		at, err := mat.LeastSquares(design, ts.Z[n])     // J_n × I_n
		if err != nil {
			// Rank-deficient sketched system (e.g. zero core on the first
			// sweep): fall back to ridge-regularized normal equations.
			at, err = ridgeSolve(design, ts.Z[n])
			if err != nil {
				return fmt.Errorf("tuckersketch: mode-%d least squares: %w", n, err)
			}
		}
		factors[n] = at.T()
	}
	return solveCoreTS(ts, factors, core, opts)
}

// solveCoreTS solves min‖T2·vec(G) − z2‖ with T2 = TS(⊗ all factors).
func solveCoreTS(ts *sketch.TensorSketches, factors []*mat.Dense, core **tensor.Dense, opts Options) error {
	t2 := kronSketchSkip(ts, factors, -1, ts.M2, false) // m2 × ∏J
	cols := t2.Cols()
	var g []float64
	if cols <= 200 {
		rhs := mat.NewFromData(len(ts.Z2), 1, append([]float64(nil), ts.Z2...))
		sol, err := mat.LeastSquares(t2, rhs)
		if err != nil {
			solM, rerr := ridgeSolve(t2, rhs)
			if rerr != nil {
				return fmt.Errorf("tuckersketch: core least squares: %w", err)
			}
			sol = solM.T()
		}
		g = make([]float64, cols)
		for i := range g {
			g[i] = sol.At(i, 0)
		}
	} else {
		g = cgls(t2, ts.Z2, opts.CGIters)
	}
	ranks := make([]int, len(factors))
	for k, f := range factors {
		ranks[k] = f.Cols()
	}
	*core = tensor.NewFromData(g, ranks...)
	return nil
}

// sweepTTMTS performs one Tucker-ttmts sweep: the mode-n HOOI matrix
// X_(n)·(⊗A) is approximated by Z_nᵀ·TS(⊗A) and factors come from its
// leading singular vectors; the core is the sketched projection T2ᵀ·z2.
func sweepTTMTS(ts *sketch.TensorSketches, factors []*mat.Dense, core **tensor.Dense, opts Options) error {
	order := len(factors)
	for n := 0; n < order; n++ {
		t := kronSketchSkip(ts, factors, n, ts.M1, true)
		y := mat.MulTA(ts.Z[n], t) // I_n × ∏_{k≠n}J_k ≈ X_(n)(⊗A)
		f, err := mat.LeadingLeft(y, factors[n].Cols(), mat.LeadingAuto)
		if err != nil {
			return fmt.Errorf("tuckersketch: mode-%d singular vectors: %w", n, err)
		}
		factors[n] = f
	}
	t2 := kronSketchSkip(ts, factors, -1, ts.M2, false)
	g := mat.MulVecT(t2, ts.Z2) // ∏J ≈ (⊗A)ᵀ vec X = vec(X ×ₖ Aᵀ)
	ranks := make([]int, order)
	for k, f := range factors {
		ranks[k] = f.Cols()
	}
	*core = tensor.NewFromData(g, ranks...)
	return nil
}

// kronSketchSkip builds TS(⊗_{k≠skip} factors[k]) with the level-1 (useM1)
// or level-2 per-mode CountSketches; skip = -1 includes every mode.
func kronSketchSkip(ts *sketch.TensorSketches, factors []*mat.Dense, skip, m int, useM1 bool) *mat.Dense {
	var (
		css []sketch.CountSketch
		fs  []*mat.Dense
	)
	for k, f := range factors {
		if k == skip {
			continue
		}
		if useM1 {
			css = append(css, ts.CS1[k])
		} else {
			css = append(css, ts.CS2[k])
		}
		fs = append(fs, f)
	}
	return sketch.KroneckerSketch(css, fs, m)
}

// ridgeSolve solves the normal equations (AᵀA + λI)X = AᵀB with a small
// ridge, as a fallback for rank-deficient sketched systems.
func ridgeSolve(a, b *mat.Dense) (*mat.Dense, error) {
	g := mat.Gram(a)
	lambda := 1e-8 * (1 + g.Trace()/float64(g.Rows()))
	for i := 0; i < g.Rows(); i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	return mat.SolveSPD(g, mat.MulTA(a, b))
}

// cgls runs conjugate-gradient least squares on min‖A·x − b‖ for a dense A,
// the iterative route for core solves too large for dense QR. CGLS applies
// A and Aᵀ once per iteration and is mathematically equivalent to CG on the
// normal equations without forming them.
func cgls(a *mat.Dense, b []float64, iters int) []float64 {
	_, n := a.Dims()
	x := make([]float64, n)
	r := append([]float64(nil), b...) // r = b − A·x, x = 0
	s := mat.MulVecT(a, r)            // s = Aᵀr
	p := append([]float64(nil), s...)
	gamma := mat.Dot(s, s)
	if gamma == 0 {
		return x
	}
	for it := 0; it < iters; it++ {
		q := mat.MulVec(a, p)
		qq := mat.Dot(q, q)
		if qq == 0 {
			break
		}
		alpha := gamma / qq
		mat.Axpy(alpha, p, x)
		mat.Axpy(-alpha, q, r)
		s = mat.MulVecT(a, r)
		gammaNew := mat.Dot(s, s)
		if gammaNew <= 1e-28*gamma {
			break
		}
		beta := gammaNew / gamma
		for i := range p {
			p[i] = s[i] + beta*p[i]
		}
		gamma = gammaNew
	}
	return x
}
