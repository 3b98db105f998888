package mat

import (
	"fmt"
	"math"
	"sort"
)

// EigResult holds the eigendecomposition of a symmetric matrix:
// A = V·diag(Values)·Vᵀ with orthonormal V and eigenvalues sorted in
// descending order.
type EigResult struct {
	Values  []float64
	Vectors *Dense // column k is the eigenvector for Values[k]
}

// qlMaxIter bounds the implicit QL iterations spent on one eigenvalue. Two
// or three suffice in practice; EISPACK's tql2 gives up after 30.
const qlMaxIter = 30

// SymEig computes the eigendecomposition of the symmetric matrix a by
// Householder reduction to tridiagonal form followed by the implicit-shift
// QL iteration (the EISPACK tred2/tql2 pair). Only the upper triangle of a
// is read.
//
// The reduction is a single O(n³) pass and QL then converges in a few
// iterations per eigenvalue, so the whole solve costs a small multiple of
// one n×n matrix product. An error is returned for non-finite input and if
// an eigenvalue exceeds its QL iteration cap; neither can hang.
func SymEig(a *Dense) (EigResult, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: SymEig of non-square %d×%d matrix", a.rows, a.cols))
	}
	// z starts as the symmetric matrix built from the upper triangle and
	// ends holding the eigenvectors as its rows: both passes are written
	// against the transposed accumulator so every inner loop walks a row.
	z := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := a.data[i*n+j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return EigResult{}, fmt.Errorf("mat: SymEig input has non-finite entry %g at (%d,%d)", v, i, j)
			}
			z.data[i*n+j] = v
			z.data[j*n+i] = v
		}
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(z.data, n, d, e)
	if err := tridiagonalQL(z.data, n, d, e); err != nil {
		return EigResult{}, err
	}
	return sortedEig(d, z), nil
}

// tridiagonalize reduces the symmetric n×n matrix in z (row-major) to
// tridiagonal form by Householder similarity transformations, leaving the
// diagonal in d, the subdiagonal in e[1:], and the accumulated orthogonal
// transformation Q — with Qᵀ·A·Q tridiagonal — stored transposed in z.
func tridiagonalize(z []float64, n int, d, e []float64) {
	if n == 0 {
		return
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow in the Householder norm.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// e ← A·u over the leading i×i block, reading its upper triangle
		// one row at a time.
		for j := 0; j < i; j++ {
			f = d[j]
			z[i*n+j] = f
			zj := z[j*n : j*n+i]
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		// Rank-two update A ← A − u·eᵀ − e·uᵀ of the upper triangle.
		for j := 0; j < i; j++ {
			f = d[j]
			g = e[j]
			zj := z[j*n : j*n+i]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the Householder reflectors into Q (stored transposed).
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = zi1[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				g := 0.0
				for k := 0; k <= i; k++ {
					g += zi1[k] * zj[k]
				}
				for k := 0; k <= i; k++ {
					zj[k] -= g * d[k]
				}
			}
		}
		for k := range zi1 {
			zi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tridiagonalQL diagonalizes the symmetric tridiagonal matrix (d, e[1:]) by
// the implicit-shift QL iteration, applying every rotation to the rows of z.
// On return d holds the eigenvalues (unsorted) and row i of z the
// eigenvector for d[i].
func tridiagonalQL(z []float64, n int, d, e []float64) error {
	if n == 0 {
		return nil
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	const eps = 0x1p-52
	f, tst1 := 0.0, 0.0
	for l := 0; l < n; l++ {
		// Find the first negligible subdiagonal element at or after l;
		// e[n-1] is zero, so the scan stops there at the latest.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == qlMaxIter {
				return fmt.Errorf("mat: SymEig QL iteration did not converge for eigenvalue %d in %d iterations", l, qlMaxIter)
			}
			// Implicit Wilkinson-style shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// One QL sweep of Givens rotations from the bottom of the
			// unreduced block up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				zi := z[i*n : i*n+n]
				zi1 := z[(i+1)*n : (i+1)*n+n]
				for k, x := range zi1 {
					zi1[k] = s*zi[k] + c*x
					zi[k] = c*zi[k] - s*x
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
		if math.IsNaN(d[l]) || math.IsInf(d[l], 0) {
			return fmt.Errorf("mat: SymEig produced non-finite eigenvalue %d (input too large?)", l)
		}
	}
	return nil
}

// sortedEig orders the eigenpairs by descending eigenvalue; row i of z is
// the eigenvector for vals[i]. Equal eigenvalues keep their QL order, so
// the output is a pure function of the input.
func sortedEig(vals []float64, z *Dense) EigResult {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	sortedVals := make([]float64, n)
	vec := New(n, n)
	for k, src := range idx {
		sortedVals[k] = vals[src]
		row := z.data[src*n : src*n+n]
		for i, x := range row {
			vec.data[i*n+k] = x
		}
	}
	return EigResult{Values: sortedVals, Vectors: vec}
}
