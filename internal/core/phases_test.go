package core

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// exactApproximation builds an Approximation whose slice SVDs are EXACT
// (full-rank), so the slice-based phase kernels must agree with dense
// computation to machine precision.
func exactApproximation(t *testing.T, x *tensor.Dense, ranks []int) *Approximation {
	t.Helper()
	opts, err := Options{Config: Config{Ranks: ranks, Seed: 3}}.withDefaults(x.Order())
	if err != nil {
		t.Fatal(err)
	}
	opts.NoReorder = true
	full := min(x.Dim(0), x.Dim(1))
	ap := &Approximation{
		Shape:     x.Shape(),
		Perm:      identityPerm(x.Order()),
		Ranks:     ranks,
		NormX:     x.Norm(),
		SliceRank: full,
		opts:      opts,
	}
	for l := 0; l < x.NumSlices(); l++ {
		res, err := mat.SVD(x.FrontalSlice(l))
		if err != nil {
			t.Fatal(err)
		}
		ap.Slices = append(ap.Slices, SliceSVD{U: res.U, S: res.S, V: res.V})
	}
	return ap
}

func randomFactors(rng *rand.Rand, shape, ranks []int) []*mat.Dense {
	fs := make([]*mat.Dense, len(shape))
	for n := range shape {
		fs[n] = mat.RandOrthonormal(shape[n], ranks[n], rng)
	}
	return fs
}

func TestProjectedTensorMatchesDense(t *testing.T) {
	// W must equal X ×₁ A(1)ᵀ ×₂ A(2)ᵀ when the slice SVDs are exact.
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandN(rng, 7, 6, 5, 3)
	ranks := []int{3, 2, 2, 2}
	ap := exactApproximation(t, x, ranks)
	fs := randomFactors(rng, x.Shape(), ranks)

	got, err := ap.projectedTensor("initialization", fs[0], fs[1])
	if err != nil {
		t.Fatal(err)
	}
	want := x.ModeProduct(fs[0].T(), 0).ModeProduct(fs[1].T(), 1)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatal("projectedTensor disagrees with dense projection")
	}
}

func TestAccumulateSliceModeMatchesDense(t *testing.T) {
	// The mode-1/2 accumulations must equal the dense HOOI matrices
	// (X ×_{k≠n} A(k)ᵀ unfolded) when the slice SVDs are exact.
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][]int{{6, 5, 4}, {7, 6, 3, 2}, {5, 8}} {
		x := tensor.RandN(rng, shape...)
		ranks := make([]int, len(shape))
		for i := range ranks {
			ranks[i] = 2
		}
		ap := exactApproximation(t, x, ranks)
		fs := randomFactors(rng, shape, ranks)
		for mode := 0; mode < 2; mode++ {
			got, err := ap.accumulateSliceMode(mode, fs)
			if err != nil {
				t.Fatal(err)
			}
			want := x.TTMAllTransposed(fs, mode).Unfold(mode)
			if !got.EqualApprox(want, 1e-9) {
				t.Fatalf("shape %v mode %d: slice accumulation disagrees with dense", shape, mode)
			}
		}
	}
}

func TestIterateMatchesDenseHOOISweep(t *testing.T) {
	// One full D-Tucker sweep from a fixed initialization must match one
	// dense HOOI sweep exactly (up to sign/rotation of singular vectors —
	// compare subspaces via projectors) when slice SVDs are exact. The
	// sweep takes its own LeadingAuto route; the dense side uses the Jacobi
	// SVD as the reference.
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandN(rng, 8, 7, 6)
	ranks := []int{3, 3, 3}
	ap := exactApproximation(t, x, ranks)
	ap.opts.MaxIters = 1

	init := randomFactors(rng, x.Shape(), ranks)
	sliceFs := append([]*mat.Dense(nil), init...)
	core1, _, _, _, err := ap.iterate(sliceFs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	denseFs := append([]*mat.Dense(nil), init...)
	for n := 0; n < 3; n++ {
		y := x.TTMAllTransposed(denseFs, n)
		f, err := mat.LeadingLeft(y.Unfold(n), ranks[n], mat.LeadingJacobi)
		if err != nil {
			t.Fatal(err)
		}
		denseFs[n] = f
	}
	core2 := x.TTMAllTransposed(denseFs, -1)

	for n := 0; n < 3; n++ {
		// Compare projectors P = F·Fᵀ, which are rotation-invariant.
		p1 := mat.MulTB(sliceFs[n], sliceFs[n])
		p2 := mat.MulTB(denseFs[n], denseFs[n])
		if !p1.EqualApprox(p2, 1e-7) {
			t.Fatalf("mode-%d subspace differs between slice-based and dense sweep", n)
		}
	}
	if d := core1.Norm() - core2.Norm(); d > 1e-7 || d < -1e-7 {
		t.Fatalf("core norms differ: %g vs %g", core1.Norm(), core2.Norm())
	}
}

func TestInitFactorsOrthonormalAndAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := lowRankTensor(rng, 0.05, 3, 14, 12, 10)
	ap, err := Approximate(x, Options{Config: Config{Ranks: uniformRanks(3, 3), Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ap.initFactors()
	if err != nil {
		t.Fatal(err)
	}
	for n, f := range fs {
		if !mat.Gram(f).EqualApprox(mat.Identity(f.Cols()), 1e-8) {
			t.Fatalf("init factor %d not orthonormal", n)
		}
		if f.Rows() != ap.Shape[n] || f.Cols() != ap.Ranks[n] {
			t.Fatalf("init factor %d has shape %d×%d", n, f.Rows(), f.Cols())
		}
	}
	// On exactly low-rank data the initialization alone should already
	// capture most of the energy: one subsequent sweep must converge.
	core, fit, iters, _, err := ap.iterate(fs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fit < 0.9 {
		t.Fatalf("fit %g after iterate from init", fit)
	}
	if core == nil || iters < 1 {
		t.Fatal("iterate returned no core")
	}
}

func TestSliceIndexConsistentWithTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandN(rng, 4, 3, 5, 2, 3)
	ap := &Approximation{Shape: x.Shape()}
	var idx []int
	for l := 0; l < x.NumSlices(); l++ {
		idx = ap.sliceIndex(l, idx)
		want := x.SliceIndex(l)
		for k := range want {
			if idx[k] != want[k] {
				t.Fatalf("sliceIndex(%d) = %v, want %v", l, idx, want)
			}
		}
	}
}

func TestModeOrderStableDescending(t *testing.T) {
	perm := modeOrder([]int{5, 9, 9, 2})
	// 9s keep relative order (stable): modes 1, 2, then 0, then 3.
	want := []int{1, 2, 0, 3}
	for i, p := range perm {
		if p != want[i] {
			t.Fatalf("modeOrder = %v, want %v", perm, want)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	o, err := Options{Config: Config{Ranks: []int{2, 2}}}.withDefaults(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Tol != 1e-4 || o.MaxIters != 100 || o.Oversampling != 5 || o.PowerIters != 1 || o.Workers != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if _, err := (Options{Config: Config{Ranks: []int{2}}}).withDefaults(2); err == nil {
		t.Fatal("rank-count mismatch accepted")
	}
}
