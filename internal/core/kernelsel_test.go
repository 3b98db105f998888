package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dterr"
	"repro/internal/kernelsel"
	"repro/internal/metrics"
)

// TestSliceKernelBitIdenticalAcrossWorkers extends the worker-count
// determinism contract to every selectable slice kernel: forced randsvd,
// exact, gram, and the cost-model auto selection must each produce
// bit-identical factors, core, and fit for Workers ∈ {1, 4, 8}.
func TestSliceKernelBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := lowRankTensor(rng, 0.1, 3, 14, 11, 4, 3)
	for _, kernel := range []string{"randsvd", "exact", "gram", "auto"} {
		base := Options{Config: Config{Ranks: uniformRanks(4, 3), Seed: 12, SliceKernel: kernel}}
		ref, err := Decompose(x, base)
		if err != nil {
			t.Fatalf("kernel %s: %v", kernel, err)
		}
		for _, workers := range []int{4, 8} {
			opts := base
			opts.Workers = workers
			dec, err := Decompose(x, opts)
			if err != nil {
				t.Fatalf("kernel %s workers %d: %v", kernel, workers, err)
			}
			if dec.Fit != ref.Fit {
				t.Fatalf("kernel %s workers %d: fit %v differs from serial %v", kernel, workers, dec.Fit, ref.Fit)
			}
			for n := range ref.Factors {
				if !bitIdentical(dec.Factors[n].Data(), ref.Factors[n].Data()) {
					t.Fatalf("kernel %s workers %d: factor %d differs from serial run", kernel, workers, n)
				}
			}
			if !bitIdentical(dec.Core.Data(), ref.Core.Data()) {
				t.Fatalf("kernel %s workers %d: core differs from serial run", kernel, workers)
			}
		}
	}
}

// TestAutoSelectionDeterministic checks that under SliceKernel "auto" the
// per-kernel counter split — i.e. which kernel every slice picked — is
// identical across worker counts and across repeated runs with the same
// profile, and that every slice was attributed to exactly one kernel.
func TestAutoSelectionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x := lowRankTensor(rng, 0.1, 3, 16, 12, 5)
	opts := Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 7, SliceKernel: "auto"}}

	countKernels := func(workers int) metrics.Counters {
		t.Helper()
		prev := metrics.SetEnabled(true)
		defer metrics.SetEnabled(prev)
		metrics.Reset()
		o := opts
		o.Workers = workers
		if _, err := Decompose(x, o); err != nil {
			t.Fatal(err)
		}
		return metrics.Snapshot()
	}

	ref := countKernels(1)
	if ref.SliceSVDs == 0 {
		t.Fatal("no slice compressions recorded")
	}
	if got := ref.SliceKernelRand + ref.SliceKernelExact + ref.SliceKernelGram; got != ref.SliceSVDs {
		t.Fatalf("kernel split %d does not cover all %d slices", got, ref.SliceSVDs)
	}
	for _, workers := range []int{4, 8, 1} { // trailing 1 = repeated run
		c := countKernels(workers)
		if c.SliceKernelRand != ref.SliceKernelRand ||
			c.SliceKernelExact != ref.SliceKernelExact ||
			c.SliceKernelGram != ref.SliceKernelGram {
			t.Fatalf("workers=%d: kernel split (%d,%d,%d) differs from reference (%d,%d,%d)",
				workers, c.SliceKernelRand, c.SliceKernelExact, c.SliceKernelGram,
				ref.SliceKernelRand, ref.SliceKernelExact, ref.SliceKernelGram)
		}
	}
}

// TestAutoSelectionPicksByShape pins the cost model's qualitative behavior
// through the real decomposition path: low rank on big slices stays with
// the randomized kernel, rank at the slice limit on rectangular slices
// routes to a dense route (gram or exact), never randsvd.
func TestAutoSelectionPicksByShape(t *testing.T) {
	prev := metrics.SetEnabled(true)
	defer metrics.SetEnabled(prev)
	rng := rand.New(rand.NewSource(33))

	metrics.Reset()
	lowRank := lowRankTensor(rng, 0.1, 2, 64, 48, 3)
	if _, err := Approximate(lowRank, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 1, SliceKernel: "auto"}}); err != nil {
		t.Fatal(err)
	}
	if c := metrics.Snapshot(); c.SliceKernelRand != c.SliceSVDs {
		t.Fatalf("low-rank wide slices: %d/%d slices not randsvd", c.SliceSVDs-c.SliceKernelRand, c.SliceSVDs)
	}

	metrics.Reset()
	fullRank := lowRankTensor(rng, 0.1, 3, 40, 8, 3)
	if _, err := Approximate(fullRank, Options{Config: Config{Ranks: []int{8, 8, 3}, Seed: 1, SliceKernel: "auto"}}); err != nil {
		t.Fatal(err)
	}
	if c := metrics.Snapshot(); c.SliceKernelRand != 0 {
		t.Fatalf("rank-saturated slices: %d slices still chose randsvd", c.SliceKernelRand)
	}
}

// TestProfileMismatchRejected: a config naming one profile fingerprint must
// not decompose under a different profile — the result would be cached
// under a key describing a computation that never ran.
func TestProfileMismatchRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x := lowRankTensor(rng, 0.1, 3, 10, 9, 3)
	opts := Options{Config: Config{
		Ranks:         uniformRanks(3, 3),
		SliceKernel:   "auto",
		KernelProfile: "0123456789abcdef",
	}}
	if _, err := Decompose(x, opts); !errors.Is(err, dterr.ErrInvalidInput) {
		t.Fatalf("mismatched profile: err = %v, want ErrInvalidInput", err)
	}

	// The matching fingerprint — and the empty "whatever the process runs"
	// form — must both pass.
	opts.KernelProfile = kernelsel.Default().Fingerprint()
	if _, err := Decompose(x, opts); err != nil {
		t.Fatalf("matching profile rejected: %v", err)
	}
	opts.KernelProfile = ""
	if _, err := Decompose(x, opts); err != nil {
		t.Fatalf("empty profile rejected: %v", err)
	}
}

func TestConfigCanonicalKernelKeys(t *testing.T) {
	base := Config{Ranks: []int{3, 3, 3}}

	// Empty and "randsvd" are the same computation and must share a cache
	// key; "exact" is a different one.
	spelled := base
	spelled.SliceKernel = "randsvd"
	if base.Canonical() != spelled.Canonical() {
		t.Fatalf("empty SliceKernel and randsvd disagree:\n%s\n%s", base.Canonical(), spelled.Canonical())
	}
	exact := base
	exact.SliceKernel = "exact"
	if exact.Canonical() == base.Canonical() {
		t.Fatal("SliceKernel=exact shares the randsvd cache key")
	}

	// A profile fingerprint participates in the key only under "auto":
	// forced-kernel results do not depend on the profile.
	forced := base
	forced.SliceKernel = "gram"
	forced.KernelProfile = "aaaaaaaaaaaaaaaa"
	if strings.Contains(forced.Canonical(), "aaaaaaaaaaaaaaaa") {
		t.Fatal("profile fingerprint leaked into a forced-kernel key")
	}
	autoA := base
	autoA.SliceKernel = "auto"
	autoA.KernelProfile = "aaaaaaaaaaaaaaaa"
	autoB := base
	autoB.SliceKernel = "auto"
	autoB.KernelProfile = "bbbbbbbbbbbbbbbb"
	if autoA.Canonical() == autoB.Canonical() {
		t.Fatal("different profiles produced the same auto-selection cache key")
	}

	// Unknown kernel names are rejected up front.
	bad := base
	bad.SliceKernel = "fastest"
	if err := bad.Validate(); !errors.Is(err, dterr.ErrInvalidInput) {
		t.Fatalf("Validate(SliceKernel=fastest) = %v, want ErrInvalidInput", err)
	}
}

// TestGramKernelAccuracy: the Gram route must recover a low-rank tensor as
// well as the exact kernel does (squared conditioning is irrelevant for
// dominant subspaces of well-conditioned data).
func TestGramKernelAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x := lowRankTensor(rng, 0, 3, 20, 15, 6)
	for _, kernel := range []string{"exact", "gram"} {
		dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 4, SliceKernel: kernel}})
		if err != nil {
			t.Fatalf("kernel %s: %v", kernel, err)
		}
		if dec.Fit < 0.999 {
			t.Errorf("kernel %s: fit %v on exactly low-rank data, want ≈1", kernel, dec.Fit)
		}
	}
}
