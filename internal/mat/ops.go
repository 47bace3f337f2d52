package mat

import (
	"fmt"
	"math"
)

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d · %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		var s float64
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func checkSameDims(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func FrobeniusNorm(m *Dense) float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the Euclidean inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// The *Into variants below write their result into a caller-owned matrix so
// iterative algorithms (the RPC fit loop re-forms the same products every
// Algorithm-1 iteration) allocate their work matrices once, outside the
// loop. Destinations must already have the right shape; where aliasing the
// inputs would corrupt the computation it is rejected with a panic.

func sameBacking(a, b *Dense) bool {
	return len(a.data) > 0 && len(b.data) > 0 && &a.data[0] == &b.data[0]
}

// MulInto computes dst = a·b. dst must be a.rows×b.cols and must not alias
// a or b.
func MulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto destination %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		panic("mat: MulInto destination aliases an operand")
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
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
	return dst
}

// MulABTInto computes dst = a·bᵀ without materialising the transpose.
// dst must be a.rows×b.rows and must not alias a or b.
func MulABTInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABTInto dimension mismatch %dx%d · (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulABTInto destination %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		panic("mat: MulABTInto destination aliases an operand")
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			dst.data[i*dst.cols+j] = s
		}
	}
	return dst
}

// GramInto computes dst = m·mᵀ. dst must be m.rows×m.rows and must not
// alias m.
func GramInto(dst, m *Dense) *Dense {
	if dst.rows != m.rows || dst.cols != m.rows {
		panic(fmt.Sprintf("mat: GramInto destination %dx%d, want %dx%d", dst.rows, dst.cols, m.rows, m.rows))
	}
	if sameBacking(dst, m) {
		panic("mat: GramInto destination aliases the operand")
	}
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j := i; j < m.rows; j++ {
			rj := m.data[j*m.cols : (j+1)*m.cols]
			var s float64
			for k, v := range ri {
				s += v * rj[k]
			}
			dst.data[i*dst.cols+j] = s
			dst.data[j*dst.cols+i] = s
		}
	}
	return dst
}

// SubInto computes dst = a − b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Dense) *Dense {
	checkSameDims("SubInto", a, b)
	checkSameDims("SubInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = v - b.data[i]
	}
	return dst
}

// SubScaledInto computes dst = a − c·b elementwise (the accepted step of
// the Richardson update). dst may alias a or b.
func SubScaledInto(dst, a *Dense, c float64, b *Dense) *Dense {
	checkSameDims("SubScaledInto", a, b)
	checkSameDims("SubScaledInto", dst, a)
	for i, v := range a.data {
		dst.data[i] = v - c*b.data[i]
	}
	return dst
}

// MulDiagRightInPlace scales column j of m by d[j], in place.
func MulDiagRightInPlace(m *Dense, d []float64) {
	if len(d) != m.cols {
		panic(fmt.Sprintf("mat: MulDiagRightInPlace diag length %d want %d", len(d), m.cols))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] *= d[j]
		}
	}
}

// ColNormsInto writes the L2 norm of each column of m into dst (len m.cols).
func ColNormsInto(dst []float64, m *Dense) []float64 {
	if len(dst) != m.cols {
		panic(fmt.Sprintf("mat: ColNormsInto destination length %d want %d", len(dst), m.cols))
	}
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			v := m.data[i*m.cols+j]
			s += v * v
		}
		dst[j] = math.Sqrt(s)
	}
	return dst
}
