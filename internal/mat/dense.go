// Package mat provides a small dense linear-algebra kernel used by every
// numeric module in this repository: in-place matrix products, Frobenius
// and spectral norms, a symmetric Jacobi eigensolver, and LU-based linear
// solves.
//
// The package is deliberately minimal — it implements exactly what the RPC
// learning algorithm (Eq. 24–28 of the paper) and the baseline models need,
// with dimensions typically 4×4 (the Bernstein Gram matrix) up to a few
// hundred (kernel PCA Gram matrices). All storage is row-major float64.
package mat

import (
	"fmt"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
// The zero value is an empty 0×0 matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r×c matrix backed by data. If data is nil a zeroed
// backing slice is allocated; otherwise len(data) must equal r*c and the
// slice is used directly (not copied).
func NewDense(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Zeros returns a zero-filled r×c matrix.
func Zeros(r, c int) *Dense { return NewDense(r, c, nil) }

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	m := Zeros(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	data := make([]float64, len(m.data))
	copy(data, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: data}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// CopyFrom copies the elements of n into m. Dimensions must match.
func (m *Dense) CopyFrom(n *Dense) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	copy(m.data, n.data)
}
