package mat

import (
	"math"
	"math/rand"
	"testing"
)

// hilbert returns the n×n Hilbert matrix, the classic ill-conditioned test
// case (condition number grows like e^{3.5n}).
func hilbert(n int) *Dense {
	h := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	return h
}

func TestSVDHilbertReconstruction(t *testing.T) {
	// Even at condition number ~1e13 the one-sided Jacobi SVD should
	// reconstruct to near machine precision (its high-relative-accuracy
	// property).
	h := hilbert(10)
	res, err := SVD(h)
	if err != nil {
		t.Fatal(err)
	}
	sig := New(10, 10)
	for i, v := range res.S {
		sig.Set(i, i, v)
	}
	rebuilt := Mul(Mul(res.U, sig), res.V.T())
	if !rebuilt.EqualApprox(h, 1e-13) {
		t.Fatal("Hilbert SVD reconstruction above 1e-13")
	}
	// Known: Hilbert singular values decay fast; σ₁ ≈ 1.75, σ₁₀ ≈ 1e-13.
	if math.Abs(res.S[0]-1.7519) > 1e-3 {
		t.Fatalf("σ₁ = %g, want ≈1.7519", res.S[0])
	}
	if res.S[9] > 1e-11 {
		t.Fatalf("σ₁₀ = %g, want tiny", res.S[9])
	}
}

func TestSVDScalingEquivariance(t *testing.T) {
	// SVD(αA) has singular values α·σ and the same subspaces.
	rng := rand.New(rand.NewSource(1))
	a := RandN(8, 6, rng)
	r1, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SVD(a.Scale(1e-150))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.S {
		if r1.S[i] == 0 {
			continue
		}
		ratio := r2.S[i] / r1.S[i]
		if math.Abs(ratio-1e-150) > 1e-160 {
			t.Fatalf("σ%d scaled by %g, want 1e-150", i, ratio)
		}
	}
}

func TestSVDHugeValuesNoOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(6, 5, rng).Scale(1e150)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.S {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("overflowed singular value %g", v)
		}
	}
}

func TestQRIllConditioned(t *testing.T) {
	h := hilbert(12)
	res := QR(h)
	if !Mul(res.Q, res.R).EqualApprox(h, 1e-13) {
		t.Fatal("QR of Hilbert matrix does not reconstruct")
	}
	if !Gram(res.Q).EqualApprox(Identity(12), 1e-12) {
		t.Fatal("Q loses orthogonality on ill-conditioned input")
	}
}

func TestSymEigClusteredEigenvalues(t *testing.T) {
	// A matrix with a tight eigenvalue cluster: SymEig must still produce
	// an orthonormal basis whose reconstruction is accurate.
	rng := rand.New(rand.NewSource(3))
	q := RandOrthonormal(8, 8, rng)
	lam := []float64{5, 1 + 1e-10, 1, 1 - 1e-10, 0.5, 0.1, 1e-8, 0}
	d := New(8, 8)
	for i, v := range lam {
		d.Set(i, i, v)
	}
	a := Mul(Mul(q, d), q.T())
	res, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Gram(res.Vectors).EqualApprox(Identity(8), 1e-10) {
		t.Fatal("eigenvectors lose orthogonality in a cluster")
	}
	for i, want := range lam {
		if math.Abs(res.Values[i]-want) > 1e-9 {
			t.Fatalf("λ%d = %g, want %g", i, res.Values[i], want)
		}
	}
}

func TestLUNearSingularStillSolves(t *testing.T) {
	// κ ≈ 1e12 system: the solution should still carry several digits.
	n := 8
	h := hilbert(n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i + 1)
	}
	b := MulVec(h, xTrue)
	f, err := LU(h)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify via residual (forward error is hopeless at this κ).
	r := MulVec(h, x)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-10 {
			t.Fatalf("residual %g at %d", r[i]-b[i], i)
		}
	}
}

func TestCompleteOrthonormalColumnAllPositions(t *testing.T) {
	// Fill every column of an orthonormal set one at a time: each
	// completion must stay orthonormal.
	rng := rand.New(rand.NewSource(4))
	u := RandOrthonormal(7, 4, rng)
	ext := New(7, 6)
	for i := 0; i < 7; i++ {
		copy(ext.Row(i)[:4], u.Row(i))
	}
	completeOrthonormalColumn(ext, 4)
	completeOrthonormalColumn(ext, 5)
	if !Gram(ext).EqualApprox(Identity(6), 1e-10) {
		t.Fatal("completed columns not orthonormal")
	}
}

func TestLeadingLeftDegenerateSpectrum(t *testing.T) {
	// All-equal singular values: any orthonormal basis is valid; ensure no
	// panic and orthonormal output.
	u, err := LeadingLeft(Identity(6), 3, LeadingAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !Gram(u).EqualApprox(Identity(3), 1e-10) {
		t.Fatal("degenerate LeadingLeft not orthonormal")
	}
}

func TestSVDOneByOne(t *testing.T) {
	a := FromRows([][]float64{{-3}})
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.S[0]-3) > 1e-15 {
		t.Fatalf("σ = %v", res.S)
	}
	if math.Abs(math.Abs(res.U.At(0, 0))-1) > 1e-15 || math.Abs(math.Abs(res.V.At(0, 0))-1) > 1e-15 {
		t.Fatal("1×1 factors not unit")
	}
}

func TestGramHugeValues(t *testing.T) {
	a := FromRows([][]float64{{1e160}, {1e160}})
	g := Gram(a)
	if math.IsInf(g.At(0, 0), 0) {
		t.Skip("Gram of 1e160 overflows by construction; Norm-based paths handle this")
	}
}

func TestCholeskyIdentity(t *testing.T) {
	l, err := Cholesky(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if !l.EqualApprox(Identity(5), 1e-15) {
		t.Fatal("Cholesky(I) != I")
	}
}

func TestInverseOrthogonalIsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := RandOrthonormal(6, 6, rng)
	inv, err := Inverse(q)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.EqualApprox(q.T(), 1e-11) {
		t.Fatal("inverse of orthogonal matrix is not its transpose")
	}
}
