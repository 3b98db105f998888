package mat

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ with
// k = min(m,n) singular triplets, singular values sorted descending.
type SVDResult struct {
	U *Dense    // m×k, orthonormal columns
	S []float64 // k singular values, descending
	V *Dense    // n×k, orthonormal columns
}

// SVD computes a thin SVD of a.
//
// Implementation: small matrices (min dimension below gkCutoff) are reduced
// to square via a thin QR factorization and diagonalized with a one-sided
// Jacobi iteration — unconditionally convergent with high relative
// accuracy, and O(k³) per sweep after the QR step regardless of how tall
// the input is. Larger matrices dispatch to the Golub–Kahan
// bidiagonalization path (SVDGolubKahan), whose single O(m·n²) reduction is
// ~3× faster at n≈200. An error is returned only if an iteration limit is
// exceeded (non-finite input).
func SVD(a *Dense) (SVDResult, error) {
	metrics.CountSVD()
	return svd(a)
}

// svd is SVD without the metrics count, so the wide-input transpose
// recursion records one call per user-level factorization.
func svd(a *Dense) (SVDResult, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return SVDResult{U: New(m, 0), S: nil, V: New(n, 0)}, nil
	}
	// Crossover between the Jacobi and Golub-Kahan paths, set where the
	// bidiagonalization's lower constant overtakes Jacobi's fast
	// convergence on small problems (see BenchmarkSVDJacobi*/GK*).
	const gkCutoff = 32
	if m >= gkCutoff && n >= gkCutoff {
		return SVDGolubKahan(a)
	}
	if m < n {
		// SVD(Aᵀ) = V·S·Uᵀ.
		res, err := svd(a.T())
		if err != nil {
			return SVDResult{}, err
		}
		return SVDResult{U: res.V, S: res.S, V: res.U}, nil
	}

	qr := QR(a) // Q: m×n, R: n×n
	u, s, v, err := jacobiSVDSquare(qr.R)
	if err != nil {
		return SVDResult{}, err
	}
	return SVDResult{U: Mul(qr.Q, u), S: s, V: v}, nil
}

// jacobiSVDSquare computes the SVD of a square matrix via one-sided Jacobi:
// it finds V orthogonal with A·V having orthogonal columns, then normalizes.
func jacobiSVDSquare(a *Dense) (u *Dense, s []float64, v *Dense, err error) {
	n := a.rows
	// Pre-scale so the largest magnitude is O(1): products of two tiny
	// column norms would otherwise underflow in the rotation threshold and
	// stall convergence. Singular values are scaled back at the end.
	scale := a.MaxAbs()
	if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		scale = 1
	}
	inv := 1 / scale
	// Column-major working copy: cols[j] is the j-th column, so the inner
	// rotation loops are contiguous.
	w := make([][]float64, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] *= inv
		}
		w[j] = col
	}
	vcols := make([][]float64, n)
	for j := 0; j < n; j++ {
		vcols[j] = make([]float64, n)
		vcols[j][j] = 1
	}

	const (
		maxSweeps = 60
		tol       = 1e-15
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := Dot(w[p], w[p])
				beta := Dot(w[q], w[q])
				gamma := Dot(w[p], w[q])
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha)*math.Sqrt(beta) {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				wp, wq := w[p], w[q]
				for i := 0; i < n; i++ {
					xp, xq := wp[i], wq[i]
					wp[i] = c*xp - sn*xq
					wq[i] = sn*xp + c*xq
				}
				vp, vq := vcols[p], vcols[q]
				for i := 0; i < n; i++ {
					xp, xq := vp[i], vq[i]
					vp[i] = c*xp - sn*xq
					vq[i] = sn*xp + c*xq
				}
			}
		}
		if !rotated {
			u, s, v, err = assembleJacobi(w, vcols)
			if err == nil {
				for i := range s {
					s[i] *= scale
				}
			}
			return u, s, v, err
		}
	}
	return nil, nil, nil, fmt.Errorf("mat: SVD Jacobi iteration did not converge in %d sweeps (non-finite input?)", 60)
}

func assembleJacobi(w, vcols [][]float64) (u *Dense, s []float64, v *Dense, err error) {
	n := len(w)
	sigma := make([]float64, n)
	for j := 0; j < n; j++ {
		sigma[j] = Nrm2(w[j])
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sigma[idx[a]] > sigma[idx[b]] })

	u = New(n, n)
	v = New(n, n)
	s = make([]float64, n)
	// Threshold below which a singular value is treated as zero and its
	// left vector is completed rather than normalized (avoids 0/0).
	tiny := 0.0
	if n > 0 {
		tiny = sigma[idx[0]] * 1e-300
	}
	var deficient []int
	for k, src := range idx {
		s[k] = sigma[src]
		for i := 0; i < n; i++ {
			v.data[i*n+k] = vcols[src][i]
		}
		if sigma[src] > tiny && sigma[src] > 0 {
			inv := 1 / sigma[src]
			for i := 0; i < n; i++ {
				u.data[i*n+k] = w[src][i] * inv
			}
		} else {
			s[k] = 0
			deficient = append(deficient, k)
		}
	}
	// Complete zero columns of U to an orthonormal basis so U is always
	// column-orthonormal even for rank-deficient input.
	for _, k := range deficient {
		completeOrthonormalColumn(u, k)
	}
	return u, s, v, nil
}

// completeOrthonormalColumn fills column k of u (assumed zero) with a unit
// vector orthogonal to all other columns, by Gram-Schmidt over canonical
// basis vectors.
func completeOrthonormalColumn(u *Dense, k int) {
	n := u.rows
	cand := make([]float64, n)
	for trial := 0; trial < n; trial++ {
		for i := range cand {
			cand[i] = 0
		}
		cand[trial] = 1
		// Project out every other column (twice, for re-orthogonalization).
		for pass := 0; pass < 2; pass++ {
			for c := 0; c < u.cols; c++ {
				if c == k {
					continue
				}
				d := 0.0
				for i := 0; i < n; i++ {
					d += u.data[i*u.cols+c] * cand[i]
				}
				if d == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					cand[i] -= d * u.data[i*u.cols+c]
				}
			}
		}
		norm := Nrm2(cand)
		if norm > 1e-6 {
			inv := 1 / norm
			for i := 0; i < n; i++ {
				u.data[i*u.cols+k] = cand[i] * inv
			}
			return
		}
	}
	// Unreachable for k < n; leave zero as a last resort.
}

// Truncate returns the rank-k truncation of the decomposition, sharing no
// storage with the receiver.
func (r SVDResult) Truncate(k int) SVDResult {
	if k > len(r.S) {
		k = len(r.S)
	}
	u := r.U.Slice(0, r.U.rows, 0, k)
	v := r.V.Slice(0, r.V.rows, 0, k)
	s := make([]float64, k)
	copy(s, r.S[:k])
	return SVDResult{U: u, S: s, V: v}
}

// LeadingMethod selects how LeadingLeft extracts dominant singular vectors.
type LeadingMethod int

const (
	// LeadingAuto takes the Gram route whenever fewer than min(m,n)
	// directions are wanted, and the full SVD otherwise.
	LeadingAuto LeadingMethod = iota
	// LeadingJacobi always runs the full SVD (QR + one-sided Jacobi for
	// small inputs, Golub–Kahan otherwise).
	LeadingJacobi
	// LeadingGram forms the smaller Gram matrix and eigendecomposes it
	// with SymEig. One product plus one small tridiagonal-QL solve costs a
	// fraction of a full SVD even for square inputs, at the price of a
	// squared condition number — fine for extracting dominant subspaces.
	LeadingGram
)

// LeadingLeft returns the k leading left singular vectors of a as an
// m×k column-orthonormal matrix.
func LeadingLeft(a *Dense, k int, method LeadingMethod) (*Dense, error) {
	m, n := a.Dims()
	if k > m {
		k = m
	}
	if k > n {
		// Left singular vectors beyond min(m,n) are not defined by a; the
		// Jacobi path returns an orthonormal completion, which is what the
		// ALS callers need, so route there.
		method = LeadingJacobi
	}
	if method == LeadingAuto {
		// The Gram route is cheaper at every aspect ratio. Only when all
		// min(m,n) directions are wanted would its squared condition number
		// reach the trailing vectors, so that case keeps the SVD.
		if k < min(m, n) {
			method = LeadingGram
		} else {
			method = LeadingJacobi
		}
	}
	switch method {
	case LeadingGram:
		return leadingLeftGram(a, k)
	default:
		res, err := SVD(a)
		if err != nil {
			return nil, err
		}
		if k <= res.U.cols {
			return res.U.Slice(0, m, 0, k), nil
		}
		// Caller asked for more directions than a defines: pad with an
		// orthonormal completion so downstream factor matrices stay
		// column-orthonormal.
		u := New(m, k)
		for i := 0; i < m; i++ {
			copy(u.Row(i)[:res.U.cols], res.U.Row(i))
		}
		for j := res.U.cols; j < k; j++ {
			completeOrthonormalColumn(u, j)
		}
		return u, nil
	}
}

func leadingLeftGram(a *Dense, k int) (*Dense, error) {
	m, n := a.Dims()
	if m <= n {
		// Small row space: eigenvectors of A·Aᵀ are the left vectors.
		g := MulTB(a, a) // m×m
		eig, err := SymEig(g)
		if err != nil {
			return nil, err
		}
		return eig.Vectors.Slice(0, m, 0, k), nil
	}
	// Tall: eigen of AᵀA gives V; U = A·V·Σ⁻¹.
	g := Gram(a) // n×n
	eig, err := SymEig(g)
	if err != nil {
		return nil, err
	}
	u := Mul(a, eig.Vectors.Slice(0, n, 0, k)) // m×k, column j has norm σ_j
	scaleToUnitColumns(u, eig.Values[:k])
	return u, nil
}
