package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// lowRankTensor builds an exactly rank-(r,...,r) Tucker tensor of the given
// shape plus optional Gaussian noise.
func lowRankTensor(rng *rand.Rand, noise float64, r int, shape ...int) *tensor.Dense {
	ranks := make([]int, len(shape))
	for i := range ranks {
		ranks[i] = r
	}
	g := tensor.RandN(rng, ranks...)
	x := g
	for n, s := range shape {
		x = x.ModeProduct(mat.RandOrthonormal(s, r, rng), n)
	}
	if noise > 0 {
		e := tensor.RandN(rng, shape...)
		scale := noise * x.Norm() / e.Norm()
		e.ScaleInPlace(scale)
		x.AddInPlace(e)
	}
	return x
}

func uniformRanks(order, j int) []int {
	r := make([]int, order)
	for i := range r {
		r[i] = j
	}
	return r
}

func TestDecomposeRecoversExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankTensor(rng, 0, 4, 20, 15, 12)
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 4), Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := dec.RelError(x); rel > 1e-6 {
		t.Fatalf("relative error %g on exactly low-rank input", rel)
	}
	if dec.Fit < 1-1e-6 {
		t.Fatalf("fit estimate %g, want ≈1", dec.Fit)
	}
}

func TestDecomposeNoisyLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := lowRankTensor(rng, 0.1, 5, 30, 25, 20)
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 5), Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	rel := dec.RelError(x)
	// Noise is 10% of signal norm; error should land near noise level.
	if rel > 0.15 {
		t.Fatalf("relative error %g, want ≲ 0.15", rel)
	}
}

func TestDecomposeOrder4(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := lowRankTensor(rng, 0.05, 3, 12, 10, 8, 6)
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(4, 3), Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := dec.RelError(x); rel > 0.1 {
		t.Fatalf("order-4 relative error %g", rel)
	}
	if got := dec.Core.Shape(); len(got) != 4 {
		t.Fatalf("core order %d", len(got))
	}
}

func TestDecomposeMatrixInput(t *testing.T) {
	// Order-2 input: D-Tucker degenerates to a truncated SVD.
	rng := rand.New(rand.NewSource(4))
	x := lowRankTensor(rng, 0, 3, 25, 18)
	dec, err := Decompose(x, Options{Config: Config{Ranks: []int{3, 3}, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := dec.RelError(x); rel > 1e-6 {
		t.Fatalf("matrix relative error %g", rel)
	}
}

func TestFactorsOrthonormalAndShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := lowRankTensor(rng, 0.2, 4, 16, 24, 9)
	ranks := []int{4, 5, 3}
	dec, err := Decompose(x, Options{Config: Config{Ranks: ranks, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(x.Shape()); err != nil {
		t.Fatal(err)
	}
	for n, f := range dec.Factors {
		if f.Rows() != x.Dim(n) || f.Cols() != ranks[n] {
			t.Fatalf("factor %d is %d×%d, want %d×%d", n, f.Rows(), f.Cols(), x.Dim(n), ranks[n])
		}
		if !mat.Gram(f).EqualApprox(mat.Identity(ranks[n]), 1e-8) {
			t.Fatalf("factor %d not column-orthonormal", n)
		}
	}
	for n, j := range ranks {
		if dec.Core.Dim(n) != j {
			t.Fatalf("core mode %d is %d, want %d", n, dec.Core.Dim(n), j)
		}
	}
}

func TestModeReorderingTransparent(t *testing.T) {
	// Results must be expressed in the ORIGINAL mode order even when the
	// input needs reordering (here mode sizes are ascending, forcing a
	// full reversal internally).
	rng := rand.New(rand.NewSource(6))
	x := lowRankTensor(rng, 0, 3, 8, 14, 30)
	dec, err := Decompose(x, Options{Config: Config{Ranks: []int{3, 4, 5}, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(x.Shape()); err != nil {
		t.Fatal(err)
	}
	if rel := dec.RelError(x); rel > 1e-6 {
		t.Fatalf("relative error %g with reordering", rel)
	}
}

func TestNoReorderMatchesReorderAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := lowRankTensor(rng, 0.1, 3, 10, 20, 15)
	a, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 1, NoReorder: true}})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.RelError(x), b.RelError(x)
	if math.Abs(ra-rb) > 0.05 {
		t.Fatalf("reorder %g vs no-reorder %g differ too much", ra, rb)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	// The Seed contract: every parallel site is owner-computes, so results
	// are BIT-identical — not merely close — for every Workers value.
	rng := rand.New(rand.NewSource(8))
	x := lowRankTensor(rng, 0.1, 3, 12, 12, 16)
	opts := Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 42}}
	a, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	b, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for n := range a.Factors {
		if !bitIdentical(a.Factors[n].Data(), b.Factors[n].Data()) {
			t.Fatalf("factor %d differs across worker counts", n)
		}
	}
	if !bitIdentical(a.Core.Data(), b.Core.Data()) {
		t.Fatal("core differs across worker counts")
	}
}

func TestApproximationReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := lowRankTensor(rng, 0.1, 3, 14, 18, 10)
	ap, err := Approximate(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := ap.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ap.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Core.EqualApprox(d2.Core, 1e-9) {
		t.Fatal("repeated Decompose on one Approximation is not deterministic")
	}
}

func TestApproximationStorageAndError(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := lowRankTensor(rng, 0, 3, 20, 16, 12)
	ap, err := Approximate(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	wantPerSlice := 20*3 + 3 + 16*3 // U + S + V at slice rank 3
	if got := ap.StorageFloats(); got != 12*wantPerSlice {
		t.Fatalf("StorageFloats = %d, want %d", got, 12*wantPerSlice)
	}
	if got := ap.StorageFloats(); got >= x.Len() {
		t.Fatalf("compressed storage %d not smaller than input %d", got, x.Len())
	}
	if e := ap.ApproxRelError(); e > 1e-8 {
		t.Fatalf("ApproxRelError = %g on exactly low-rank input", e)
	}
}

func TestApproxRelErrorReflectsTruncation(t *testing.T) {
	// Full-rank random tensor compressed at small slice rank must report a
	// substantial approximation error.
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandN(rng, 20, 20, 6)
	ap, err := Approximate(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if e := ap.ApproxRelError(); e < 0.3 {
		t.Fatalf("ApproxRelError = %g, expected large truncation error", e)
	}
}

func TestOptionsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandN(rng, 5, 5, 5)
	cases := []Options{
		{},                                       // missing ranks
		{Config: Config{Ranks: []int{3, 3}}},     // wrong count
		{Config: Config{Ranks: []int{3, -1, 3}}}, // negative rank
		{Config: Config{Ranks: []int{6, 3, 3}}},  // rank exceeds dim
		{Config: Config{Ranks: []int{3, 3, 3}, MaxIters: -1}}, // negative iters
	}
	for i, opts := range cases {
		if _, err := Decompose(x, opts); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	if _, err := Decompose(tensor.RandN(rng, 7), Options{Config: Config{Ranks: []int{2}}}); err == nil {
		t.Fatal("order-1 tensor accepted")
	}
}

func TestSliceRankOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := lowRankTensor(rng, 0.05, 3, 16, 14, 8)
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 3), SliceRank: 6, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rel := dec.RelError(x); rel > 0.1 {
		t.Fatalf("relative error %g with larger slice rank", rel)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := lowRankTensor(rng, 0.1, 3, 12, 12, 12)
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats.Iters < 1 {
		t.Fatalf("Iters = %d", dec.Stats.Iters)
	}
	if dec.Stats.Total() <= 0 {
		t.Fatal("zero total time")
	}
}

func TestMaxItersRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := tensor.RandN(rng, 15, 15, 15) // full rank: slow convergence
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 3), MaxIters: 2, Tol: 1e-12, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats.Iters > 2 {
		t.Fatalf("Iters = %d, want ≤ 2", dec.Stats.Iters)
	}
}

func TestFitEstimateTracksExactError(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := lowRankTensor(rng, 0.2, 4, 20, 18, 12)
	dec, err := Decompose(x, Options{Config: Config{Ranks: uniformRanks(3, 4), Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	exact := dec.RelError(x)
	estimate := 1 - dec.Fit
	if math.Abs(exact-estimate) > 0.05 {
		t.Fatalf("fit estimate error %g vs exact %g", estimate, exact)
	}
}

func TestRanksDifferPerMode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := lowRankTensor(rng, 0.05, 6, 24, 20, 16)
	dec, err := Decompose(x, Options{Config: Config{Ranks: []int{6, 5, 4}, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Core.Shape(); got[0] != 6 || got[1] != 5 || got[2] != 4 {
		t.Fatalf("core shape %v", got)
	}
}

func BenchmarkDecompose64Cube(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankTensor(rng, 0.1, 10, 64, 64, 64)
	opts := Options{Config: Config{Ranks: uniformRanks(3, 10), Seed: 1, MaxIters: 10}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(x, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproxWorkers1(b *testing.B) { benchApproxWorkers(b, 1) }
func BenchmarkApproxWorkers4(b *testing.B) { benchApproxWorkers(b, 4) }

func benchApproxWorkers(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankTensor(rng, 0.1, 10, 96, 96, 32)
	opts := Options{Config: Config{Ranks: uniformRanks(3, 10), Seed: 1}, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Approximate(x, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExactSliceSVDAblation(t *testing.T) {
	// Exact slice SVDs must be at least as accurate as randomized ones on
	// data where the slice rank truncates real energy.
	rng := rand.New(rand.NewSource(18))
	x := tensor.RandN(rng, 24, 20, 8) // full-rank slices
	opts := Options{Config: Config{Ranks: uniformRanks(3, 4), Seed: 4}}
	rnd, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SliceKernel = "exact"
	exact, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	re, ee := rnd.RelError(x), exact.RelError(x)
	if ee > re+0.01 {
		t.Fatalf("exact slice SVD error %g worse than randomized %g", ee, re)
	}
}

func BenchmarkApproxRandomized(b *testing.B) { benchApproxKernel(b, "randsvd") }
func BenchmarkApproxExact(b *testing.B)      { benchApproxKernel(b, "exact") }

func benchApproxKernel(b *testing.B, kernel string) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankTensor(rng, 0.1, 10, 128, 96, 24)
	opts := Options{Config: Config{Ranks: uniformRanks(3, 10), Seed: 1, SliceKernel: kernel}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Approximate(x, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParallelIterationMatchesSequential(t *testing.T) {
	// The two-phase slice accumulation is owner-computes in both phases, so
	// the parallel path must reproduce the sequential one bit for bit.
	// Two Approximations are built (the accumulation reuses pool-owned
	// scratch, so one Approximation's result would be overwritten).
	rng := rand.New(rand.NewSource(19))
	x := lowRankTensor(rng, 0.1, 3, 14, 12, 20)
	opts := Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 9}}
	seqAp, err := Approximate(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	parAp, err := Approximate(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]*mat.Dense, 3)
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 3; n++ {
		fs[n] = mat.RandOrthonormal(seqAp.Shape[n], 3, r)
	}
	for mode := 0; mode < 2; mode++ {
		seq, err := seqAp.accumulateSliceMode(mode, fs)
		if err != nil {
			t.Fatal(err)
		}
		par, err := parAp.accumulateSliceMode(mode, fs)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(seq.Data(), par.Data()) {
			t.Fatalf("mode %d: parallel accumulation disagrees with sequential", mode)
		}
	}
}

func BenchmarkIterateWorkers1(b *testing.B) { benchIterWorkers(b, 1) }
func BenchmarkIterateWorkers4(b *testing.B) { benchIterWorkers(b, 4) }
func BenchmarkIterateWorkers8(b *testing.B) { benchIterWorkers(b, 8) }

func benchIterWorkers(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankTensor(rng, 0.1, 10, 96, 96, 64)
	ap, err := Approximate(x, Options{Config: Config{Ranks: uniformRanks(3, 10), Seed: 1, MaxIters: 5}, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	init, err := ap.initFactors()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := append([]*mat.Dense(nil), init...)
		if _, _, _, _, err := ap.iterate(fs, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
