package mat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pool"
)

// naiveMul is the reference triple loop used to validate the optimized
// kernels.
func naiveMul(a, b *Dense) *Dense {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulSmallKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, 1e-14) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(6, 4, rng)
	if !Mul(a, Identity(4)).EqualApprox(a, 1e-14) {
		t.Fatal("A·I != A")
	}
	if !Mul(Identity(6), a).EqualApprox(a, 1e-14) {
		t.Fatal("I·A != A")
	}
}

func TestMulMatchesNaiveRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		m := 1 + rng.Intn(12)
		k := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		a := RandN(m, k, rng)
		b := RandN(k, n, rng)
		if !Mul(a, b).EqualApprox(naiveMul(a, b), 1e-12) {
			t.Fatalf("Mul mismatch for %d×%d · %d×%d", m, k, k, n)
		}
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched inner dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandN(7, 3, rng)
	b := RandN(7, 5, rng)
	if !MulTA(a, b).EqualApprox(Mul(a.T(), b), 1e-12) {
		t.Fatal("MulTA != Aᵀ·B")
	}
}

func TestMulTBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandN(4, 6, rng)
	b := RandN(3, 6, rng)
	if !MulTB(a, b).EqualApprox(Mul(a, b.T()), 1e-12) {
		t.Fatal("MulTB != A·Bᵀ")
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := RandN(8, 5, rng)
	if !Gram(a).EqualApprox(Mul(a.T(), a), 1e-12) {
		t.Fatal("Gram != AᵀA")
	}
}

func TestGramSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Gram(RandN(9, 4, rng))
	if !g.EqualApprox(g.T(), 0) {
		t.Fatal("Gram result not exactly symmetric")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := MulVec(a, []float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-14) {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	gotT := MulVecT(a, []float64{1, 1, 1})
	wantT := []float64{9, 12}
	for i := range wantT {
		if !almostEqual(gotT[i], wantT[i], 1e-14) {
			t.Fatalf("MulVecT[%d] = %g, want %g", i, gotT[i], wantT[i])
		}
	}
}

func TestMulAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := RandN(3, 4, rng)
	b := RandN(4, 2, rng)
	dst := RandN(3, 2, rng)
	want := dst.Add(Mul(a, b))
	MulAddInto(dst, a, b)
	if !dst.EqualApprox(want, 1e-12) {
		t.Fatal("MulAddInto does not accumulate correctly")
	}
}

func TestMulParallelMatchesSequential(t *testing.T) {
	// Each output row is owned by one worker, so the determinism contract
	// promises bit-identical products at any pool size.
	rng := rand.New(rand.NewSource(9))
	a := RandN(129, 64, rng)
	b := RandN(64, 80, rng)
	seq := Mul(a, b)
	p := pool.New(4)
	if effectiveWorkers(p.Size(), a.rows, 2*a.cols*b.cols) <= 1 {
		t.Fatal("product too small to exercise the parallel path")
	}
	sameBits(t, "MulP on 4 workers", MulP(a, b, p), seq)
}

func TestKroneckerKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	got := Kronecker(a, b)
	want := FromRows([][]float64{{0, 1, 0, 2}, {1, 0, 2, 0}})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("Kronecker = %v", got)
	}
}

func TestKroneckerMixedProductProperty(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD) — the identity the Tucker updates lean on.
	rng := rand.New(rand.NewSource(10))
	a := RandN(3, 2, rng)
	b := RandN(2, 4, rng)
	c := RandN(2, 3, rng)
	d := RandN(4, 2, rng)
	lhs := Mul(Kronecker(a, b), Kronecker(c, d))
	rhs := Kronecker(Mul(a, c), Mul(b, d))
	if !lhs.EqualApprox(rhs, 1e-11) {
		t.Fatal("mixed-product property violated")
	}
}

func TestKronRow(t *testing.T) {
	dst := make([]float64, 6)
	KronRow(dst, []float64{1, 2}, []float64{1, 10, 100})
	want := []float64{1, 10, 100, 2, 20, 200}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("KronRow = %v, want %v", dst, want)
		}
	}
}

func TestKronRowMatchesKronecker(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandN(1, 3, rng)
	b := RandN(1, 4, rng)
	c := RandN(1, 2, rng)
	dst := make([]float64, 24)
	KronRow(dst, a.Row(0), b.Row(0), c.Row(0))
	want := Kronecker(Kronecker(a, b), c)
	for i, v := range dst {
		if !almostEqual(v, want.Data()[i], 1e-13) {
			t.Fatalf("KronRow[%d] = %g, want %g", i, v, want.Data()[i])
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) within roundoff, via testing/quick over seeds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(4, 3, rng)
		b := RandN(3, 5, rng)
		c := RandN(5, 2, rng)
		return Mul(Mul(a, b), c).EqualApprox(Mul(a, Mul(b, c)), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandN(4, 3, rng)
		b := RandN(3, 4, rng)
		c := RandN(3, 4, rng)
		return Mul(a, b.Add(c)).EqualApprox(Mul(a, b).Add(Mul(a, c)), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(128, 128, rng)
	y := RandN(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulTallSkinny(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(4096, 10, rng)
	y := RandN(10, 10, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}
