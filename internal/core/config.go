package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dterr"
)

// Config holds the plain-data parameters of a D-Tucker decomposition — the
// part of Options that can cross a process boundary. It is the request type
// of the dtuckerd serving API: JSON round-trips losslessly, Validate checks
// it without a tensor in hand, and Canonical renders a normalized cache key
// so two requests asking for the same computation are recognized as equal.
//
// The zero value of every field except Ranks selects the paper's defaults
// (tol 1e-4, ≤100 sweeps, slice rank max of the two leading target ranks).
// Runtime attachments — context, metrics, worker pools — live on Options,
// which embeds Config.
type Config struct {
	// Ranks holds the target core dimensionalities J_n, one per mode of
	// the input tensor, in the input's original mode order. Required.
	Ranks []int `json:"ranks"`

	// SliceRank r is the rank of the per-slice randomized SVDs in the
	// approximation phase. Zero selects max(J of the two slice modes),
	// the paper's choice of matching the slice rank to the target rank.
	SliceRank int `json:"slice_rank,omitempty"`

	// Tol stops the iteration phase when the fit change drops below it.
	// Zero selects 1e-4, the tolerance used in the paper's experiments.
	Tol float64 `json:"tol,omitempty"`

	// MaxIters bounds the iteration phase. Zero selects 100, the paper's
	// cap.
	MaxIters int `json:"max_iters,omitempty"`

	// Oversampling and PowerIters are passed to the randomized SVD
	// (defaults 5 and 1; PowerIters = -1 disables power iterations).
	Oversampling int `json:"oversampling,omitempty"`
	PowerIters   int `json:"power_iters,omitempty"`

	// Seed makes the randomized sketches reproducible. Slice l draws from
	// a generator seeded with Seed+l, so results are independent of
	// Workers.
	Seed int64 `json:"seed,omitempty"`

	// NoReorder keeps the input's mode order instead of sorting modes by
	// decreasing dimensionality. Mostly useful in tests and when the
	// caller knows the first two modes are already the largest.
	NoReorder bool `json:"no_reorder,omitempty"`

	// SliceKernel selects the slice-compression kernel of the
	// approximation phase: "randsvd" (the paper's default), "exact" (dense
	// SVD, the accuracy ablation: O(I1·I2·min(I1,I2)) per slice instead of
	// O(I1·I2·r)), "gram" (Gram-eigendecomposition, cheap for very
	// rectangular slices), or "auto" (per-slice cost-model choice via
	// internal/kernelsel). Empty selects "randsvd".
	SliceKernel string `json:"slice_kernel,omitempty"`

	// KernelProfile is the fingerprint of the kernelsel profile that "auto"
	// selection resolves against (kernelsel.Profile.Fingerprint). It exists
	// so the profile joins the cache key: the serving layer stamps it before
	// hashing, and Decompose rejects a mismatch between this field and the
	// profile actually supplied in Options. Ignored unless SliceKernel is
	// "auto"; empty means "whatever profile the process runs with".
	KernelProfile string `json:"kernel_profile,omitempty"`
}

// Validate checks the config's internal consistency without a tensor in
// hand: Ranks must be present and positive, numeric knobs finite and within
// range, SliceKernel a known name. The per-tensor checks (Ranks length
// versus order, ranks versus dimensionalities) happen at decomposition time.
// Every violation wraps dterr.ErrInvalidInput.
func (c Config) Validate() error {
	if len(c.Ranks) == 0 {
		return fmt.Errorf("core: config has no ranks: %w", dterr.ErrInvalidInput)
	}
	for n, j := range c.Ranks {
		if j <= 0 {
			return fmt.Errorf("core: non-positive rank %d for mode %d: %w", j, n, dterr.ErrInvalidInput)
		}
	}
	if c.SliceRank < 0 {
		return fmt.Errorf("core: negative SliceRank %d: %w", c.SliceRank, dterr.ErrInvalidInput)
	}
	if math.IsNaN(c.Tol) || math.IsInf(c.Tol, 0) || c.Tol < 0 {
		return fmt.Errorf("core: tolerance %v is not a finite non-negative number: %w", c.Tol, dterr.ErrInvalidInput)
	}
	if c.MaxIters < 0 {
		return fmt.Errorf("core: negative MaxIters %d: %w", c.MaxIters, dterr.ErrInvalidInput)
	}
	if c.PowerIters < -1 {
		return fmt.Errorf("core: PowerIters %d below -1 (the disable sentinel): %w", c.PowerIters, dterr.ErrInvalidInput)
	}
	switch c.SliceKernel {
	case "", "auto", "randsvd", "exact", "gram":
	default:
		return fmt.Errorf("core: unknown SliceKernel %q (want auto, randsvd, exact, or gram): %w",
			c.SliceKernel, dterr.ErrInvalidInput)
	}
	return nil
}

// Normalized returns the config with the paper's defaults substituted for
// zero values, exactly as the decomposition itself resolves them: tol 1e-4,
// 100 sweeps, oversampling 5 (negative coerced to 0), one power iteration
// (−1 stays "disabled"). SliceRank 0 is kept as the "auto" sentinel because
// its resolution needs the tensor shape. Two configs with equal Normalized
// forms request the same computation.
func (c Config) Normalized() Config {
	c.Ranks = append([]int(nil), c.Ranks...)
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	if c.MaxIters == 0 {
		c.MaxIters = 100
	}
	if c.Oversampling == 0 {
		c.Oversampling = 5
	}
	if c.Oversampling < 0 {
		c.Oversampling = 0
	}
	if c.PowerIters == 0 {
		c.PowerIters = 1
	}
	if c.SliceKernel == "" {
		c.SliceKernel = "randsvd"
	}
	// The profile fingerprint only matters for per-slice auto selection;
	// clearing it otherwise keeps forced-kernel requests cache-compatible
	// across processes running different profiles.
	if c.SliceKernel != "auto" {
		c.KernelProfile = ""
	}
	return c
}

// numericsVersion names the kernels' rounding behaviour. Equal configs
// produce bit-identical results only under the same kernels, so a change
// that moves results in the last bits (version 2: the tridiagonal-QL
// eigensolver behind every Gram-route leading-vector update) bumps it, and
// with it every cache key and checkpoint fingerprint.
const numericsVersion = 2

// Canonical renders the normalized config as a deterministic string — the
// config half of the serving layer's result-cache key. Equal strings mean
// "same computation on the same tensor yields bit-identical results": every
// field that influences the output participates, and defaults are resolved
// first so an explicit tol=1e-4 and the zero value collide as they should.
func (c Config) Canonical() string {
	n := c.Normalized()
	var sb strings.Builder
	sb.WriteString("ranks=")
	for i, r := range n.Ranks {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(r))
	}
	// leading=0 (LeadingAuto, the only route since the Leading field was
	// removed) stays so journaled cache keys and checkpoints remain valid.
	fmt.Fprintf(&sb, ";slicerank=%d;tol=%s;maxiters=%d;os=%d;pi=%d;seed=%d;leading=0;noreorder=%t;kernel=%s;profile=%s;numerics=%d",
		n.SliceRank, strconv.FormatFloat(n.Tol, 'g', -1, 64), n.MaxIters,
		n.Oversampling, n.PowerIters, n.Seed, n.NoReorder, n.SliceKernel, n.KernelProfile, numericsVersion)
	return sb.String()
}

// Fingerprint returns a short stable identifier of the normalized config —
// the compatibility stamp checkpoints carry. Two configs with equal
// fingerprints run the same deterministic computation (randomness is seeded
// from Config.Seed, so the fingerprint is RNG-free), which is what makes a
// checkpoint taken under one process resumable in another: a resume under a
// different fingerprint would splice states from two different trajectories
// and is rejected as a corrupt artifact.
func (c Config) Fingerprint() string {
	sum := sha256.Sum256([]byte("dtucker-config-fp-v2|" + c.Canonical()))
	return hex.EncodeToString(sum[:8])
}

// Options returns the config wrapped in a plain Options value with no
// runtime attachments — the form the library entry points take. Callers
// attach context, metrics, or a pool on the result.
func (c Config) Options() Options { return Options{Config: c} }
