package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// isOrthonormalCols reports whether q's columns are orthonormal within tol.
func isOrthonormalCols(q *Dense, tol float64) bool {
	g := Gram(q)
	return g.EqualApprox(Identity(q.Cols()), tol)
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {4, 10}, {1, 1}, {7, 1}, {1, 7}, {50, 12}} {
		a := RandN(dims[0], dims[1], rng)
		res := QR(a)
		if !Mul(res.Q, res.R).EqualApprox(a, 1e-11) {
			t.Fatalf("QR reconstruction failed for %dx%d", dims[0], dims[1])
		}
		if !isOrthonormalCols(res.Q, 1e-11) {
			t.Fatalf("Q not orthonormal for %dx%d", dims[0], dims[1])
		}
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := RandN(8, 5, rng)
	r := QR(a).R
	for i := 0; i < r.Rows(); i++ {
		for j := 0; j < i && j < r.Cols(); j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %g below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: QR must still reconstruct.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	res := QR(a)
	if !Mul(res.Q, res.R).EqualApprox(a, 1e-12) {
		t.Fatal("QR reconstruction failed for rank-deficient input")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := New(4, 3)
	res := QR(a)
	if !Mul(res.Q, res.R).EqualApprox(a, 1e-14) {
		t.Fatal("QR of zero matrix does not reconstruct")
	}
}

func TestOrthonormalizeSpansSameSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := RandN(9, 3, rng)
	q := Orthonormalize(a)
	if !isOrthonormalCols(q, 1e-11) {
		t.Fatal("Orthonormalize result not orthonormal")
	}
	// Projection of a onto span(q) must equal a.
	proj := Mul(q, MulTA(q, a))
	if !proj.EqualApprox(a, 1e-10) {
		t.Fatal("Orthonormalize changed the column space")
	}
}

func TestQRPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(15)
		n := 1 + rng.Intn(15)
		a := RandN(m, n, rng)
		res := QR(a)
		return Mul(res.Q, res.R).EqualApprox(a, 1e-10) && isOrthonormalCols(res.Q, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveUpperTriangular(t *testing.T) {
	r := FromRows([][]float64{{2, 1}, {0, 4}})
	x, err := SolveUpperTriangular(r, []float64{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, 4y = 8 → y=2, x=1.5.
	if !almostEqual(x[0], 1.5, 1e-14) || !almostEqual(x[1], 2, 1e-14) {
		t.Fatalf("solution = %v", x)
	}
}

func TestSolveUpperTriangularSingular(t *testing.T) {
	r := FromRows([][]float64{{1, 1}, {0, 0}})
	if _, err := SolveUpperTriangular(r, []float64{1, 1}); err == nil {
		t.Fatal("expected error for singular triangular system")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := RandN(10, 4, rng)
	xTrue := RandN(4, 2, rng)
	b := Mul(a, xTrue)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.EqualApprox(xTrue, 1e-10) {
		t.Fatal("least squares did not recover exact solution")
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := RandN(12, 3, rng)
	b := RandN(12, 1, rng)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	resid := b.Sub(Mul(a, x))
	// Aᵀ·resid ≈ 0 characterizes the LS minimizer.
	if MulTA(a, resid).MaxAbs() > 1e-10 {
		t.Fatal("least-squares residual not orthogonal to column space")
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(New(2, 4), New(2, 1)); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	f, err := LU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveVec([]float64{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+3y=10, 6x+3y=12 → x=1, y=2.
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("LU solve = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := LU(a); err == nil {
		t.Fatal("expected error factoring singular matrix")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	f, err := LU(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Det(); !almostEqual(got, -2, 1e-12) {
		t.Fatalf("Det = %g, want -2", got)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(8)
		a := RandN(n, n, rng)
		inv, err := Inverse(a)
		if err != nil {
			continue // singular draw is astronomically unlikely but legal
		}
		if !Mul(a, inv).EqualApprox(Identity(n), 1e-9) {
			t.Fatalf("A·A⁻¹ != I for n=%d", n)
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	b := RandN(6, 4, rng)
	a := Gram(b) // SPD (a.s. full rank)
	// Add ridge to guarantee positive definiteness.
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+0.1)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !MulTB(l, l).EqualApprox(a, 1e-10) {
		t.Fatal("L·Lᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	b := RandN(8, 3, rng)
	a := Gram(b)
	for i := 0; i < 3; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	rhs := RandN(3, 2, rng)
	x, err := SolveSPD(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(a, x).EqualApprox(rhs, 1e-9) {
		t.Fatal("SolveSPD residual too large")
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 7}})
	res, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Values[0], 7, 1e-12) || !almostEqual(res.Values[1], 3, 1e-12) {
		t.Fatalf("eigenvalues = %v", res.Values)
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	res, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Values[0], 3, 1e-12) || !almostEqual(res.Values[1], 1, 1e-12) {
		t.Fatalf("eigenvalues = %v", res.Values)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{1, 2, 3, 5, 10, 20, 64, 128} {
		// A Gram matrix and an indefinite symmetric matrix of each size.
		checkSymEig(t, fmt.Sprintf("gram n=%d", n), Gram(RandN(n+3, n, rng)))
		b := RandN(n, n, rng)
		checkSymEig(t, fmt.Sprintf("indefinite n=%d", n), b.Add(b.T()))
	}
}

func TestSymEigValuesSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := Gram(RandN(12, 6, rng))
	res, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Values); i++ {
		if res.Values[i] > res.Values[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", res.Values)
		}
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, dims := range [][2]int{{5, 5}, {12, 4}, {4, 12}, {1, 1}, {9, 1}, {1, 9}, {40, 15}} {
		a := RandN(dims[0], dims[1], rng)
		res, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		k := len(res.S)
		sig := New(k, k)
		for i, v := range res.S {
			sig.Set(i, i, v)
		}
		rebuilt := Mul(Mul(res.U, sig), res.V.T())
		if !rebuilt.EqualApprox(a, 1e-10*(1+a.Norm())) {
			t.Fatalf("SVD reconstruction failed for %dx%d", dims[0], dims[1])
		}
		if !isOrthonormalCols(res.U, 1e-10) || !isOrthonormalCols(res.V, 1e-10) {
			t.Fatalf("SVD factors not orthonormal for %dx%d", dims[0], dims[1])
		}
	}
}

func TestSVDSingularValuesSortedNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	res, err := SVD(RandN(10, 7, rng))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.S {
		if v < 0 {
			t.Fatalf("negative singular value %g", v)
		}
		if i > 0 && v > res.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", res.S)
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := FromRows([][]float64{{0, 3}, {2, 0}})
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.S[0], 3, 1e-12) || !almostEqual(res.S[1], 2, 1e-12) {
		t.Fatalf("singular values = %v, want [3 2]", res.S)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: second singular value must vanish and factors stay
	// orthonormal.
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.S[1] > 1e-10 {
		t.Fatalf("rank-1 input produced σ₂ = %g", res.S[1])
	}
	if !isOrthonormalCols(res.U, 1e-10) {
		t.Fatal("U not orthonormal for rank-deficient input")
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	res, err := SVD(New(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.S {
		if v != 0 {
			t.Fatalf("zero matrix has σ = %v", res.S)
		}
	}
	if !isOrthonormalCols(res.U, 1e-10) || !isOrthonormalCols(res.V, 1e-10) {
		t.Fatal("zero-matrix SVD factors not orthonormal")
	}
}

func TestSVDFrobeniusIdentity(t *testing.T) {
	// ‖A‖_F² = Σσ², a classic invariant.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		a := RandN(m, n, rng)
		res, err := SVD(a)
		if err != nil {
			return false
		}
		ss := 0.0
		for _, v := range res.S {
			ss += v * v
		}
		na := a.Norm()
		return math.Abs(ss-na*na) <= 1e-9*(1+na*na)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDTruncateBestApproximation(t *testing.T) {
	// Eckart–Young sanity: truncated reconstruction error equals the tail
	// singular values' energy.
	rng := rand.New(rand.NewSource(32))
	a := RandN(10, 8, rng)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	tr := res.Truncate(k)
	sig := New(k, k)
	for i, v := range tr.S {
		sig.Set(i, i, v)
	}
	approx := Mul(Mul(tr.U, sig), tr.V.T())
	errNorm := a.Sub(approx).Norm()
	tail := 0.0
	for _, v := range res.S[k:] {
		tail += v * v
	}
	if !almostEqual(errNorm, math.Sqrt(tail), 1e-8) {
		t.Fatalf("truncation error %g, want %g", errNorm, math.Sqrt(tail))
	}
}

func TestLeadingLeftMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := RandN(30, 6, rng)
	full, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []LeadingMethod{LeadingJacobi, LeadingGram, LeadingAuto} {
		u, err := LeadingLeft(a, 3, method)
		if err != nil {
			t.Fatal(err)
		}
		if !isOrthonormalCols(u, 1e-9) {
			t.Fatalf("method %d: not orthonormal", method)
		}
		// Compare subspaces: ‖UᵀU_ref‖ per column should be 1.
		for j := 0; j < 3; j++ {
			overlap := 0.0
			for c := 0; c < 3; c++ {
				d := 0.0
				for i := 0; i < 30; i++ {
					d += u.At(i, c) * full.U.At(i, j)
				}
				overlap += d * d
			}
			if !almostEqual(overlap, 1, 1e-6) {
				t.Fatalf("method %d: subspace overlap %g for direction %d", method, overlap, j)
			}
		}
	}
}

func TestLeadingLeftWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := RandN(5, 40, rng)
	u, err := LeadingLeft(a, 4, LeadingAuto)
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows() != 5 || u.Cols() != 4 {
		t.Fatalf("dims %dx%d", u.Rows(), u.Cols())
	}
	if !isOrthonormalCols(u, 1e-9) {
		t.Fatal("not orthonormal")
	}
}

func TestLeadingLeftMoreThanRank(t *testing.T) {
	// k greater than min(m,n): must pad with an orthonormal completion.
	rng := rand.New(rand.NewSource(35))
	a := RandN(8, 2, rng)
	u, err := LeadingLeft(a, 5, LeadingJacobi)
	if err != nil {
		t.Fatal(err)
	}
	if u.Cols() != 5 {
		t.Fatalf("cols = %d, want 5", u.Cols())
	}
	if !isOrthonormalCols(u, 1e-9) {
		t.Fatal("completion not orthonormal")
	}
}

func TestRandOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	q := RandOrthonormal(10, 4, rng)
	if !isOrthonormalCols(q, 1e-11) {
		t.Fatal("RandOrthonormal not orthonormal")
	}
}

func BenchmarkSVD100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(100, 100, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeadingVectorsJacobi(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(2000, 20, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeadingLeft(a, 10, LeadingJacobi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeadingVectorsGram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(2000, 20, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeadingLeft(a, 10, LeadingGram); err != nil {
			b.Fatal(err)
		}
	}
}
