package mat

import (
	"fmt"
	"math"
)

// Allocating reference forms of the matrix operations. No production code
// needs them — the fit loop works in place through the *Into variants — so
// they live here, where the tests use them as oracles for those variants
// and for the eigen and linear solvers.

// Mul returns the matrix product a·b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := Zeros(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// T returns the transpose of m as a new matrix.
func T(m *Dense) *Dense {
	out := Zeros(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Dense) *Dense {
	checkSameDims("Sub", a, b)
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns c·m.
func Scale(c float64, m *Dense) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= c
	}
	return out
}

// MaxAbs returns the largest absolute element of m (0 for an empty matrix).
func MaxAbs(m *Dense) float64 {
	var best float64
	for _, v := range m.data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// ColNorms returns the L2 norm of each column of m.
func ColNorms(m *Dense) []float64 {
	out := make([]float64, m.cols)
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			v := m.At(i, j)
			s += v * v
		}
		out[j] = math.Sqrt(s)
	}
	return out
}

// MulDiagRight returns m·diag(d): scales column j of m by d[j].
func MulDiagRight(m *Dense, d []float64) *Dense {
	if len(d) != m.cols {
		panic(fmt.Sprintf("mat: MulDiagRight diag length %d want %d", len(d), m.cols))
	}
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		for j := 0; j < out.cols; j++ {
			out.data[i*out.cols+j] *= d[j]
		}
	}
	return out
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(m *Dense) float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Trace of non-square %dx%d", m.rows, m.cols))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// Gram returns m·mᵀ (rows-by-rows Gram matrix), which is symmetric PSD.
func Gram(m *Dense) *Dense {
	out := Zeros(m.rows, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j := i; j < m.rows; j++ {
			rj := m.data[j*m.cols : (j+1)*m.cols]
			var s float64
			for k, v := range ri {
				s += v * rj[k]
			}
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}

// Equal reports whether m and n have identical dimensions and elements.
func (m *Dense) Equal(n *Dense) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if v != n.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether m and n agree elementwise within tol.
func (m *Dense) EqualApprox(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}
