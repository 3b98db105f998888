// Package kernelsel is the input-adaptive kernel-selection layer for
// D-Tucker's approximation phase: given a slice shape and target rank, it
// picks the cheapest of the three slice-compression kernels — randomized
// SVD, exact dense SVD, or Gram-eigendecomposition — from a small cost
// model whose per-flop coefficients are calibrated once by a
// micro-benchmark autotuner (Calibrate) and persisted as a versioned JSON
// profile.
//
// Selection is a pure function of (shape, rank, profile): Choose never
// consults the clock at decompose time, so a decomposition's result is
// deterministic for a given (tensor, config, profile) triple and the
// serving layer's result cache stays sound. The profile's Fingerprint
// joins the cache key through core.Config.KernelProfile; changing the
// calibrated coefficients changes the fingerprint and therefore the key,
// while re-tuning only the matmul block sizes — which never change results,
// only timing — does not.
package kernelsel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/mat"
	"repro/internal/randsvd"
)

// Kernel names one slice-compression kernel. The enumeration order is the
// deterministic tie-break: when two kernels model to the same cost, the
// lower value wins.
type Kernel int

const (
	// KernelRandSVD is the paper's default: a rank-r randomized SVD
	// (Halko et al.) behind the retry-then-dense-SVD recovery chain.
	KernelRandSVD Kernel = iota
	// KernelExactSVD is a full dense SVD truncated to rank r — the
	// accuracy ablation, and the cheapest choice when r approaches the
	// small dimension.
	KernelExactSVD
	// KernelGramEig forms the smaller Gram matrix, eigendecomposes it, and
	// recovers the other factor — cheapest for very rectangular slices at
	// the price of a squared condition number (fine for dominant
	// subspaces; see mat.GramSVD).
	KernelGramEig
	numKernels
)

// String returns the kernel's config-file name, matching the values of
// core.Config.SliceKernel.
func (k Kernel) String() string {
	switch k {
	case KernelRandSVD:
		return "randsvd"
	case KernelExactSVD:
		return "exact"
	case KernelGramEig:
		return "gram"
	}
	return "kernel(?)"
}

// Schema is the version stamp of the profile JSON format. Load rejects
// files with a different schema instead of guessing.
const Schema = 1

// Profile holds the calibrated constants of the kernel cost model plus the
// autotuned matmul block sizes. A Profile is plain data: Save/Load
// round-trip it as JSON, Fingerprint identifies its selection-relevant
// content, and Choose evaluates the model without touching the clock.
type Profile struct {
	Schema     int    `json:"schema"`
	CreatedUTC string `json:"created_utc,omitempty"`

	// Environment the profile was calibrated on, recorded so a profile
	// copied across machines can be recognized (the model still works, it
	// is just tuned for somewhere else).
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`

	// Cost-model coefficients, in nanoseconds per modeled unit. The first
	// three scale flop counts; EigNsPerN3 scales s³ for the symmetric
	// eigendecomposition (mat.SymEig) of the s×s Gram matrix, kept separate
	// because its effective constant is far from the matmul kernels'.
	RandSVDNsPerFlop  float64 `json:"randsvd_ns_per_flop"`
	ExactSVDNsPerFlop float64 `json:"exact_svd_ns_per_flop"`
	GramNsPerFlop     float64 `json:"gram_ns_per_flop"`
	EigNsPerN3        float64 `json:"eig_ns_per_n3"`

	// BlockK and BlockN are the autotuned cache-block sizes for the
	// accumulation matmul kernel (mat.SetBlockSizes). They shape timing
	// only, never results, so they are excluded from Fingerprint.
	BlockK int `json:"block_k"`
	BlockN int `json:"block_n"`
}

// Default returns the built-in profile used when no calibrated one is
// supplied: coefficient ratios from the repo's reference measurements, and
// the default block sizes. Its fingerprint is stable across processes, so
// "auto" selection without a profile file is still cacheable.
func Default() *Profile {
	return &Profile{
		Schema:            Schema,
		RandSVDNsPerFlop:  1.0,
		ExactSVDNsPerFlop: 1.6,
		GramNsPerFlop:     1.0,
		EigNsPerN3:        30.0,
		BlockK:            0, // 0 = keep mat's compiled-in defaults
		BlockN:            0,
	}
}

// Validate checks the profile is usable: matching schema, finite positive
// coefficients, non-negative block sizes.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("kernelsel: nil profile")
	}
	if p.Schema != Schema {
		return fmt.Errorf("kernelsel: profile schema %d, want %d", p.Schema, Schema)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"randsvd_ns_per_flop", p.RandSVDNsPerFlop},
		{"exact_svd_ns_per_flop", p.ExactSVDNsPerFlop},
		{"gram_ns_per_flop", p.GramNsPerFlop},
		{"eig_ns_per_n3", p.EigNsPerN3},
	} {
		if !(c.v > 0) || math.IsInf(c.v, 0) {
			return fmt.Errorf("kernelsel: profile coefficient %s = %v is not a positive finite number", c.name, c.v)
		}
	}
	if p.BlockK < 0 || p.BlockN < 0 {
		return fmt.Errorf("kernelsel: negative block sizes %d×%d", p.BlockK, p.BlockN)
	}
	return nil
}

// Fingerprint identifies the profile's selection-relevant content: the
// schema and the four cost coefficients. Two profiles with equal
// fingerprints select the same kernel for every input, so they may share
// cache entries; the block sizes and environment records are deliberately
// excluded because they cannot change results.
func (p *Profile) Fingerprint() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	sum := sha256.Sum256([]byte(fmt.Sprintf("kernelsel:v%d;rand=%s;exact=%s;gram=%s;eig=%s",
		p.Schema, g(p.RandSVDNsPerFlop), g(p.ExactSVDNsPerFlop), g(p.GramNsPerFlop), g(p.EigNsPerN3))))
	return hex.EncodeToString(sum[:8])
}

// CostNanos evaluates the model for one kernel on an m×n slice compressed
// to rank r under the given randomized-SVD settings. Pure arithmetic — no
// clock, no allocation.
func (p *Profile) CostNanos(k Kernel, m, n, r, oversampling, powerIters int) float64 {
	fm, fn := float64(m), float64(n)
	s := math.Min(fm, fn)
	fr := math.Min(float64(r), s)
	switch k {
	case KernelRandSVD:
		return p.RandSVDNsPerFlop * float64(randsvd.FlopEstimate(m, n, r, oversampling, powerIters))
	case KernelExactSVD:
		// R-bidiagonalized Golub–Kahan with both vector sets:
		// 4·m·n·s for the reduction, ~8·s³ for the diagonalization.
		return p.ExactSVDNsPerFlop * exactFlops(m, n)
	case KernelGramEig:
		// Forming the symmetric Gram matrix (m·n·s), recovering the long
		// factor (2·m·n·r), plus the s×s symmetric eigendecomposition.
		return p.GramNsPerFlop*(fm*fn*s+2*fm*fn*fr) + p.EigNsPerN3*s*s*s
	}
	return math.Inf(1)
}

// Choose picks the modeled-cheapest kernel for an m×n slice at rank r — a
// pure function of its arguments and the profile's coefficients, so the
// choice is identical across workers, runs, and processes. Ties break to
// the lowest Kernel value.
func (p *Profile) Choose(m, n, r, oversampling, powerIters int) Kernel {
	best, bestCost := KernelRandSVD, math.Inf(1)
	for k := KernelRandSVD; k < numKernels; k++ {
		if c := p.CostNanos(k, m, n, r, oversampling, powerIters); c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}

// Apply installs the profile's block sizes as the process-wide matmul
// blocking (a no-op when the profile carries none). Block sizes shape
// timing only, so applying a profile never changes any result.
func (p *Profile) Apply() {
	if p.BlockK > 0 && p.BlockN > 0 {
		mat.SetBlockSizes(p.BlockK, p.BlockN)
	}
}

// Save writes the profile as indented JSON.
func Save(path string, p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("kernelsel: encoding profile: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("kernelsel: writing profile: %w", err)
	}
	return nil
}

// Load reads and validates a profile file, rejecting unknown schemas and
// unusable coefficients.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kernelsel: reading profile: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("kernelsel: parsing profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("kernelsel: profile %s: %w", path, err)
	}
	return &p, nil
}
