package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSymEig asserts the SymEig contract on a: V·Λ·Vᵀ reconstructs a,
// VᵀV = I to 1e-12, and the eigenvalues descend.
func checkSymEig(t *testing.T, name string, a *Dense) EigResult {
	t.Helper()
	res, err := SymEig(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := a.Rows()
	if len(res.Values) != n || res.Vectors.Rows() != n || res.Vectors.Cols() != n {
		t.Fatalf("%s: got %d values and %d×%d vectors for n=%d", name,
			len(res.Values), res.Vectors.Rows(), res.Vectors.Cols(), n)
	}
	if !isOrthonormalCols(res.Vectors, 1e-12) {
		t.Fatalf("%s: ‖VᵀV−I‖max above 1e-12", name)
	}
	for i := 1; i < n; i++ {
		if res.Values[i] > res.Values[i-1] {
			t.Fatalf("%s: eigenvalues not descending at %d: %v > %v", name, i, res.Values[i], res.Values[i-1])
		}
	}
	lam := New(n, n)
	for i, v := range res.Values {
		lam.Set(i, i, v)
	}
	rebuilt := Mul(Mul(res.Vectors, lam), res.Vectors.T())
	if diff := rebuilt.Sub(a).Norm(); diff > 1e-12*(1+a.Norm()) {
		t.Fatalf("%s: ‖VΛVᵀ−A‖ = %g for ‖A‖ = %g", name, diff, a.Norm())
	}
	return res
}

// withSpectrum returns Q·diag(vals)·Qᵀ for a random orthogonal Q.
func withSpectrum(vals []float64, rng *rand.Rand) *Dense {
	n := len(vals)
	q := RandOrthonormal(n, n, rng)
	qs := q.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qs.Set(i, j, q.At(i, j)*vals[j])
		}
	}
	a := MulTB(qs, q)
	// Symmetrize exactly so the test matrix has no rounding asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(j, i, a.At(i, j))
		}
	}
	return a
}

func TestSymEigSpecialSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	clustered := make([]float64, n)
	for i := range clustered {
		// Three tight clusters: ten eigenvalues within 1e-12 of 5, ten
		// within 1e-12 of 1, the rest exactly -2.
		switch {
		case i < 10:
			clustered[i] = 5 + float64(i)*1e-13
		case i < 20:
			clustered[i] = 1 + float64(i)*1e-13
		default:
			clustered[i] = -2
		}
	}
	res := checkSymEig(t, "clustered", withSpectrum(clustered, rng))
	want := append([]float64(nil), clustered...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i := range want {
		if math.Abs(res.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("clustered: λ_%d = %.16g, want %.16g", i, res.Values[i], want[i])
		}
	}

	res = checkSymEig(t, "zero", New(n, n))
	for i, v := range res.Values {
		if v != 0 {
			t.Fatalf("zero matrix: λ_%d = %g", i, v)
		}
	}

	// Rank 5: A = B·Bᵀ with B of 5 columns; 59 eigenvalues vanish.
	b := RandN(n, 5, rng)
	a := MulTB(b, b)
	res = checkSymEig(t, "rank-deficient", a)
	for i := 5; i < n; i++ {
		if math.Abs(res.Values[i]) > 1e-12*res.Values[0] {
			t.Fatalf("rank-deficient: λ_%d = %g, want ≈0 (λ_0 = %g)", i, res.Values[i], res.Values[0])
		}
	}
	if res.Values[4] < 1e-3*res.Values[0] {
		t.Fatalf("rank-deficient: λ_4 = %g collapsed (λ_0 = %g)", res.Values[4], res.Values[0])
	}

	// A diagonal input with repeated entries takes the reduction's
	// zero-scale branch at every step.
	diag := New(n, n)
	for i := 0; i < n; i++ {
		diag.Set(i, i, float64(i%7))
	}
	checkSymEig(t, "diagonal", diag)
}

func TestSymEigNonFiniteInputErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {3, 7}, {15, 15}} {
			a := Gram(RandN(20, 16, rng))
			a.Set(at[0], at[1], bad)
			if _, err := SymEig(a); err == nil {
				t.Fatalf("SymEig with %g at %v returned no error", bad, at)
			}
		}
	}
	// Finite entries whose squares overflow must also fail, not hang or
	// return non-finite eigenvalues.
	big := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			big.Set(i, j, math.MaxFloat64/2)
		}
	}
	if res, err := SymEig(big); err == nil {
		for _, v := range res.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("SymEig of near-overflow input returned %v without error", res.Values)
			}
		}
	}
}

// lowRankMatrix returns an m×n matrix of exact rank r with singular values
// spread over three decades.
func lowRankMatrix(m, n, r int, rng *rand.Rand) *Dense {
	u := RandOrthonormal(m, r, rng)
	v := RandOrthonormal(n, r, rng)
	for j := 0; j < r; j++ {
		s := math.Pow(10, -3*float64(j)/float64(r))
		for i := 0; i < m; i++ {
			u.Set(i, j, u.At(i, j)*s)
		}
	}
	return MulTB(u, v)
}

func TestLeadingLeftAutoRankDeficientALSShape(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for r := 3; r <= 12; r++ {
		a := lowRankMatrix(96, 64, r, rng)
		u, err := LeadingLeft(a, 8, LeadingAuto)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if u.Rows() != 96 || u.Cols() != 8 {
			t.Fatalf("rank %d: dims %d×%d", r, u.Rows(), u.Cols())
		}
		if !isOrthonormalCols(u, 1e-12) {
			t.Fatalf("rank %d: ‖UᵀU−I‖max above 1e-12", r)
		}
		// The leading min(r,8) directions must span A's dominant subspace.
		ref, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		lead := min(r, 8)
		if r > 8 {
			// σ_8 and σ_9 are distinct, so the 8-dimensional subspace is
			// determined.
			lead = 8
		}
		overlap := Mul(u.T(), ref.U.Slice(0, 96, 0, lead))
		for j := 0; j < lead; j++ {
			col := 0.0
			for i := 0; i < 8; i++ {
				col += overlap.At(i, j) * overlap.At(i, j)
			}
			if math.Abs(col-1) > 1e-8 {
				t.Fatalf("rank %d: direction %d captured %g of unit mass", r, j, col)
			}
		}
	}
}

var benchEig EigResult

func benchmarkSymEig(b *testing.B, n int) {
	a := Gram(RandN(2*n, n, rand.New(rand.NewSource(1))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SymEig(a)
		if err != nil {
			b.Fatal(err)
		}
		benchEig = res
	}
}

// BenchmarkSymEig64 and BenchmarkSymEig128 time the eigensolve behind every
// Gram-route leading-vector update at the ALS sizes (J2·J3 = 64 columns for
// ranks 8,8,8).
func BenchmarkSymEig64(b *testing.B)  { benchmarkSymEig(b, 64) }
func BenchmarkSymEig128(b *testing.B) { benchmarkSymEig(b, 128) }

var benchLeading *Dense

// BenchmarkLeadingLeftALS times LeadingLeft(·, 8, LeadingAuto) on the
// unfoldings one ALS sweep of a 128×96×96 tensor at ranks 8,8,8 produces.
func BenchmarkLeadingLeftALS(b *testing.B) {
	for _, shape := range [][2]int{{128, 64}, {96, 64}} {
		a := RandN(shape[0], shape[1], rand.New(rand.NewSource(1)))
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := LeadingLeft(a, 8, LeadingAuto)
				if err != nil {
					b.Fatal(err)
				}
				benchLeading = u
			}
		})
	}
}
