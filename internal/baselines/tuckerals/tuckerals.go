// Package tuckerals implements the standard Tucker-ALS algorithm (HOOI —
// higher-order orthogonal iteration; De Lathauwer et al., 2000; Kolda &
// Bader, 2009, Fig. 4.4), operating directly on the raw dense tensor.
//
// Every sweep projects the full tensor onto all-but-one factor subspaces
// for each mode and extracts leading singular vectors, costing
// O(N·J·∏I_k) time per sweep with the raw tensor resident in memory —
// the cost profile D-Tucker's compressed phases avoid.
package tuckerals

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines/hosvd"
	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// InitMethod selects how the factor matrices are initialized.
type InitMethod int

const (
	// InitHOSVD seeds the factors with a truncated HOSVD (the common
	// default; deterministic).
	InitHOSVD InitMethod = iota
	// InitRandom seeds with random orthonormal matrices.
	InitRandom
)

// Options configures Tucker-ALS.
type Options struct {
	// Ranks holds the target core dimensionalities, one per mode. Required.
	Ranks []int
	// Tol stops iterating when the fit change is below it (default 1e-4).
	Tol float64
	// MaxIters caps the sweeps (default 100).
	MaxIters int
	// Init selects the initialization (default InitHOSVD).
	Init InitMethod
	// Seed drives InitRandom.
	Seed int64
}

// Result is the outcome of a Tucker-ALS run.
type Result struct {
	tucker.Model
	// Fit is the ALS fit estimate 1 − ‖X−X̂‖/‖X‖ from the core-norm
	// identity (exact for HOOI since the core is a projection of X).
	Fit   float64
	Iters int
	// InitTime and IterTime split the wall time.
	InitTime time.Duration
	IterTime time.Duration
}

// Decompose runs HOOI on x.
func Decompose(x *tensor.Dense, opts Options) (*Result, error) {
	if len(opts.Ranks) != x.Order() {
		return nil, fmt.Errorf("tuckerals: %d ranks for an order-%d tensor", len(opts.Ranks), x.Order())
	}
	for n, j := range opts.Ranks {
		if j <= 0 || j > x.Dim(n) {
			return nil, fmt.Errorf("tuckerals: rank %d invalid for mode %d of dimensionality %d", j, n, x.Dim(n))
		}
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-4
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 100
	}
	if opts.MaxIters < 0 {
		return nil, fmt.Errorf("tuckerals: negative MaxIters %d", opts.MaxIters)
	}

	t0 := time.Now()
	factors, err := initialize(x, opts)
	if err != nil {
		return nil, err
	}
	initTime := time.Since(t0)

	t1 := time.Now()
	normX := x.Norm()
	var (
		core    *tensor.Dense
		fit     float64
		prevFit float64
		iters   int
	)
	for iters = 1; iters <= opts.MaxIters; iters++ {
		var y *tensor.Dense
		for n := 0; n < x.Order(); n++ {
			y = x.TTMAllTransposed(factors, n)
			f, err := mat.LeadingLeft(y.Unfold(n), opts.Ranks[n], mat.LeadingAuto)
			if err != nil {
				return nil, fmt.Errorf("tuckerals: mode-%d update: %w", n, err)
			}
			factors[n] = f
		}
		// The last projected tensor y omits only the last mode, so one more
		// product yields the core.
		core = y.ModeProduct(factors[x.Order()-1].T(), x.Order()-1)
		fit = tucker.FitFromCore(normX, core.Norm())
		if iters > 1 && absf(fit-prevFit) < opts.Tol {
			break
		}
		prevFit = fit
	}
	if iters > opts.MaxIters {
		iters = opts.MaxIters
	}
	return &Result{
		Model:    tucker.Model{Core: core, Factors: factors},
		Fit:      fit,
		Iters:    iters,
		InitTime: initTime,
		IterTime: time.Since(t1),
	}, nil
}

func initialize(x *tensor.Dense, opts Options) ([]*mat.Dense, error) {
	switch opts.Init {
	case InitRandom:
		rng := rand.New(rand.NewSource(opts.Seed))
		factors := make([]*mat.Dense, x.Order())
		for n := range factors {
			factors[n] = mat.RandOrthonormal(x.Dim(n), opts.Ranks[n], rng)
		}
		return factors, nil
	default:
		m, err := hosvd.Decompose(x, hosvd.Options{Ranks: opts.Ranks})
		if err != nil {
			return nil, fmt.Errorf("tuckerals: HOSVD initialization: %w", err)
		}
		return m.Factors, nil
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
