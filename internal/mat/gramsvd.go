package mat

import "math"

// GramSVD computes a rank-k truncated SVD of a via the Gram route: form the
// smaller of AᵀA or AAᵀ, eigendecompose it, and recover the long factor by
// one multiplication. For very rectangular inputs this does roughly half the
// work of the dense SVD, at the price of squaring the condition number —
// accurate for dominant singular triples, which is exactly what slice
// compression needs. Eigenvalues that are non-positive (or whose recovered
// singular vector collapses under cancellation) are replaced by zero
// singular values with orthonormal-completion vectors, so U and V are
// column-orthonormal even for rank-deficient input.
func GramSVD(a *Dense, k int) (SVDResult, error) {
	m, n := a.Dims()
	s := m
	if n < s {
		s = n
	}
	if k > s {
		k = s
	}
	if k < 1 {
		k = 1
	}
	if n <= m {
		// Tall (or square): eigen of AᵀA gives V and σ²; U = A·V·Σ⁻¹.
		eig, err := SymEig(Gram(a))
		if err != nil {
			return SVDResult{}, err
		}
		v := eig.Vectors.Slice(0, n, 0, k)
		u := Mul(a, v) // m×k, column j has norm σ_j
		sig := scaleToUnitColumns(u, eig.Values[:k])
		return SVDResult{U: u, S: sig, V: v}, nil
	}
	// Wide: eigen of AAᵀ gives U; V = AᵀU·Σ⁻¹.
	eig, err := SymEig(MulTB(a, a))
	if err != nil {
		return SVDResult{}, err
	}
	u := eig.Vectors.Slice(0, m, 0, k)
	v := MulTA(a, u) // n×k, column j has norm σ_j
	sig := scaleToUnitColumns(v, eig.Values[:k])
	return SVDResult{U: u, S: sig, V: v}, nil
}

// scaleToUnitColumns turns x = A·W, whose column j has norm σ_j =
// sqrt(λ_j), into column-orthonormal form and returns the singular values.
// Each column is scaled by 1/σ_j and then re-orthogonalized against the
// columns before it: forming the Gram matrix squares the condition number,
// so the raw columns are orthogonal only to about ε·(σ_1/σ_j)². Columns
// whose eigenvalue is non-positive, or which collapse under cancellation,
// are rebuilt by orthonormal completion with σ_j = 0.
func scaleToUnitColumns(x *Dense, lambda []float64) []float64 {
	rows, cols := x.Dims()
	sig := make([]float64, cols)
	col := make([]float64, rows)
	var deficient []int
	for j := 0; j < cols; j++ {
		if lambda[j] > 0 {
			s := math.Sqrt(lambda[j])
			inv := 1 / s
			for i := range col {
				col[i] = x.data[i*cols+j] * inv
			}
			// Two modified Gram–Schmidt passes against the finished
			// columns ("twice is enough").
			for pass := 0; pass < 2; pass++ {
				for c := 0; c < j; c++ {
					d := 0.0
					for i, v := range col {
						d += x.data[i*cols+c] * v
					}
					for i := range col {
						col[i] -= d * x.data[i*cols+c]
					}
				}
			}
			if norm2 := Dot(col, col); norm2 >= 0.5 {
				inv = 1 / math.Sqrt(norm2)
				for i, v := range col {
					x.data[i*cols+j] = v * inv
				}
				sig[j] = s
				continue
			}
		}
		for i := 0; i < rows; i++ {
			x.data[i*cols+j] = 0
		}
		deficient = append(deficient, j)
	}
	for _, j := range deficient {
		completeOrthonormalColumn(x, j)
	}
	return sig
}
