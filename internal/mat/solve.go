package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// Solve solves a·x = b for x using LU decomposition with partial pivoting.
// a must be square and b must have the same number of rows; b may have
// multiple right-hand-side columns. Neither input is modified.
func Solve(a, b *Dense) (*Dense, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: Solve with non-square %dx%d", a.rows, a.cols))
	}
	if b.rows != n {
		panic(fmt.Sprintf("mat: Solve rhs rows %d want %d", b.rows, n))
	}
	lu := a.Clone()
	x := b.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}

	for k := 0; k < n; k++ {
		// Partial pivot.
		p := k
		best := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			swapRows(lu, p, k)
			swapRows(x, p, k)
			perm[p], perm[k] = perm[k], perm[p]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			if f == 0 {
				continue
			}
			lu.Set(i, k, f)
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
			for j := 0; j < x.cols; j++ {
				x.Set(i, j, x.At(i, j)-f*x.At(k, j))
			}
		}
	}
	// Back substitution.
	for j := 0; j < x.cols; j++ {
		for i := n - 1; i >= 0; i-- {
			s := x.At(i, j)
			for k := i + 1; k < n; k++ {
				s -= lu.At(i, k) * x.At(k, j)
			}
			x.Set(i, j, s/lu.At(i, i))
		}
	}
	return x, nil
}

func swapRows(m *Dense, i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
