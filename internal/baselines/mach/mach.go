// Package mach implements MACH (Tsourakakis, SDM 2010): randomized Tucker
// decomposition by entry sampling. The tensor is sparsified by keeping each
// entry with probability p (rescaled by 1/p so the sample is unbiased), and
// Tucker-ALS is then run on the sparse sample using sparse TTMc kernels.
//
// MACH trades accuracy for speed through p: the per-sweep cost drops from
// O(J·∏I_k) to O(p·∏I_k·J^{N-1}), but the sampling noise floors the
// achievable reconstruction error — the accuracy gap the paper's
// experiments exhibit.
package mach

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines/hosvd"
	"repro/internal/mat"
	"repro/internal/sptensor"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Options configures MACH.
type Options struct {
	// Ranks holds the target core dimensionalities, one per mode. Required.
	Ranks []int
	// SampleRate is the keep probability p ∈ (0,1]; default 0.1.
	SampleRate float64
	// Tol stops iterating when the fit change is below it (default 1e-4).
	Tol float64
	// MaxIters caps the ALS sweeps (default 100).
	MaxIters int
	// Seed drives the sampling and initialization.
	Seed int64
}

// Result is the outcome of a MACH run.
type Result struct {
	tucker.Model
	// Fit is the ALS fit estimate measured against the SAMPLED tensor
	// (the only data MACH sees); the true error against the dense input
	// is available via Model.RelError.
	Fit   float64
	Iters int
	// NNZ is the number of sampled entries actually processed.
	NNZ        int
	SampleTime time.Duration
	IterTime   time.Duration
}

// Decompose sparsifies x and runs sparse Tucker-ALS on the sample.
func Decompose(x *tensor.Dense, opts Options) (*Result, error) {
	if len(opts.Ranks) != x.Order() {
		return nil, fmt.Errorf("mach: %d ranks for an order-%d tensor", len(opts.Ranks), x.Order())
	}
	for n, j := range opts.Ranks {
		if j <= 0 || j > x.Dim(n) {
			return nil, fmt.Errorf("mach: rank %d invalid for mode %d of dimensionality %d", j, n, x.Dim(n))
		}
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = 0.1
	}
	if opts.SampleRate < 0 || opts.SampleRate > 1 {
		return nil, fmt.Errorf("mach: sample rate %g outside (0,1]", opts.SampleRate)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-4
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 100
	}

	t0 := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	sp := sptensor.Sample(x, opts.SampleRate, rng)
	sampleTime := time.Since(t0)

	t1 := time.Now()
	factors, err := initFactors(sp, opts, rng)
	if err != nil {
		return nil, err
	}
	normS := sp.Norm()
	var (
		core    *tensor.Dense
		fit     float64
		prevFit float64
		iters   int
	)
	for iters = 1; iters <= opts.MaxIters; iters++ {
		for n := 0; n < sp.Order(); n++ {
			y := sp.TTMcUnfolded(factors, n)
			f, err := mat.LeadingLeft(y, opts.Ranks[n], mat.LeadingAuto)
			if err != nil {
				return nil, fmt.Errorf("mach: mode-%d update: %w", n, err)
			}
			factors[n] = f
		}
		core = sp.CoreProject(factors)
		fit = tucker.FitFromCore(normS, core.Norm())
		if iters > 1 && absf(fit-prevFit) < opts.Tol {
			break
		}
		prevFit = fit
	}
	if iters > opts.MaxIters {
		iters = opts.MaxIters
	}
	return &Result{
		Model:      tucker.Model{Core: core, Factors: factors},
		Fit:        fit,
		Iters:      iters,
		NNZ:        sp.NNZ(),
		SampleTime: sampleTime,
		IterTime:   time.Since(t1),
	}, nil
}

// initFactors seeds the ALS with an HOSVD of the (densified) sample when it
// is small, else with random orthonormal matrices. The densified path is
// only taken for modest tensors, where it mirrors the reference
// implementation's use of Tensor-Toolbox defaults.
func initFactors(sp *sptensor.COO, opts Options, rng *rand.Rand) ([]*mat.Dense, error) {
	total := 1
	for _, s := range sp.Shape {
		total *= s
	}
	if total <= 1<<22 {
		m, err := hosvd.Decompose(sp.Dense(), hosvd.Options{Ranks: opts.Ranks})
		if err == nil {
			return m.Factors, nil
		}
	}
	factors := make([]*mat.Dense, len(sp.Shape))
	for n := range factors {
		factors[n] = mat.RandOrthonormal(sp.Shape[n], opts.Ranks[n], rng)
	}
	return factors, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
