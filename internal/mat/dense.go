// Package mat implements the dense linear-algebra kernel used by every
// algorithm in this repository: a row-major dense matrix type with the
// standard arithmetic, and the factorizations Tucker methods rely on
// (Householder QR, partially pivoted LU, symmetric eigendecomposition by
// Householder tridiagonalization and implicit QL, and a QR-preconditioned
// one-sided Jacobi SVD).
//
// The package uses float64 throughout and depends only on the standard
// library. Dimension mismatches are programmer errors and panic with a
// descriptive message, mirroring the convention of mainstream Go numeric
// libraries; conditions that depend on the data (singular systems,
// non-convergence) are reported as errors.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix; use New or the other constructors
// to obtain a usable matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData wraps data (row-major, length r*c) in a Dense without copying.
// The caller must not alias data afterwards unless it intends the matrix to
// observe the writes.
func NewFromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// FromRows builds a matrix from a slice of equally sized rows, copying the
// values.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d entries, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns the matrix dimensions (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %d×%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Data returns the matrix's backing slice (row-major). Mutating it mutates
// the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: copy dimension mismatch %d×%d ← %d×%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Zero sets every element to 0, preserving the shape.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Slice returns a copy of the sub-matrix with rows [r0,r1) and columns
// [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: slice [%d:%d,%d:%d] out of range for %d×%d matrix", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d for %d×%d matrix", len(v), m.rows, m.cols))
	}
	copy(m.Row(i), v)
}

// SetCol copies v into column j.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d for %d×%d matrix", len(v), m.rows, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) *Dense {
	m.checkSameShape(b, "Add")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m − b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	m.checkSameShape(b, "Sub")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// AddInPlace accumulates b into m.
func (m *Dense) AddInPlace(b *Dense) {
	m.checkSameShape(b, "AddInPlace")
	for i, v := range b.data {
		m.data[i] += v
	}
}

// AddScaledInPlace accumulates alpha*b into m.
func (m *Dense) AddScaledInPlace(alpha float64, b *Dense) {
	m.checkSameShape(b, "AddScaledInPlace")
	for i, v := range b.data {
		m.data[i] += alpha * v
	}
}

// Scale returns alpha*m as a new matrix.
func (m *Dense) Scale(alpha float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// ScaleInPlace multiplies every element by alpha.
func (m *Dense) ScaleInPlace(alpha float64) {
	for i := range m.data {
		m.data[i] *= alpha
	}
}

func (m *Dense) checkSameShape(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Norm returns the Frobenius norm of the matrix.
func (m *Dense) Norm() float64 {
	// Scaled accumulation to avoid overflow/underflow on extreme values.
	scale, ssq := 0.0, 1.0
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	best := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// IsFinite reports whether every element is finite (no NaN, no ±Inf).
func (m *Dense) IsFinite() bool {
	for _, v := range m.data {
		// v != v catches NaN; IsInf catches both infinities.
		if v != v || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Trace of non-square %d×%d matrix", m.rows, m.cols))
	}
	t := 0.0
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// EqualApprox reports whether m and b have the same shape and all elements
// within tol of each other.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense %d×%d", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return sb.String()
	}
	for i := 0; i < m.rows; i++ {
		sb.WriteString("\n  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&sb, "% .5g ", m.data[i*m.cols+j])
		}
	}
	return sb.String()
}

// Dot returns the inner product of two equally long vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Nrm2 returns the Euclidean norm of a vector, guarding against overflow.
func Nrm2(a []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range a {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x element-wise.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
