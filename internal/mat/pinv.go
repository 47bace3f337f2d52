package mat

import "fmt"

// PinvSym returns the Moore–Penrose pseudo-inverse of a symmetric matrix
// via its Jacobi eigendecomposition: A⁺ = V·diag(1/λᵢ for λᵢ>cutoff)·Vᵀ.
// Eigenvalues at or below cutoff·λmax are treated as zero, which is what
// makes this a pseudo-inverse rather than an (unstable) inverse when the
// Bernstein Gram matrix (MZ)(MZ)ᵀ of Eq. 26 is rank-deficient.
func PinvSym(a *Dense) *Dense {
	const cutoff = 1e-12
	e := SymEigen(a)
	n := a.rows
	lmax := 0.0
	for _, v := range e.Values {
		if v > lmax {
			lmax = v
		}
	}
	inv := make([]float64, n)
	for i, v := range e.Values {
		if v > cutoff*lmax && v > 0 {
			inv[i] = 1 / v
		}
	}
	// A⁺ = V diag(inv) Vᵀ
	vd := MulDiagRight(e.Vectors, inv)
	return Mul(vd, T(e.Vectors))
}

// PinvSymInto writes the Moore–Penrose pseudo-inverse of the symmetric
// matrix a into dst and returns dst, using the caller-provided scratch: w
// and v are n×n work matrices and vals a length-n slice, all reused across
// calls so the steady state allocates nothing. The eigenvalue cutoff is the
// one PinvSym applies; dst is assembled as Σ_{λᵢ>cutoff} λᵢ⁻¹·vᵢvᵢᵀ, which
// agrees with PinvSym up to summation order (the eigenpairs are not
// sorted). The fit loop's pseudo-inverse updater calls this once per
// Algorithm-1 iteration, which must stay allocation-free.
func PinvSymInto(dst, a, w, v *Dense, vals []float64) *Dense {
	const cutoff = 1e-12
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: PinvSymInto of non-square %dx%d", a.rows, a.cols))
	}
	if dst.rows != n || dst.cols != n || w.rows != n || w.cols != n || v.rows != n || v.cols != n || len(vals) < n {
		panic("mat: PinvSymInto scratch shapes do not match input")
	}
	symmetrizeInto(w, a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				v.Set(i, j, 1)
			} else {
				v.Set(i, j, 0)
			}
		}
	}
	jacobiDiagonalize(w, v)
	lmax := 0.0
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
		if vals[i] > lmax {
			lmax = vals[i]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst.Set(i, j, 0)
		}
	}
	for i := 0; i < n; i++ {
		if !(vals[i] > cutoff*lmax && vals[i] > 0) {
			continue
		}
		inv := 1 / vals[i]
		for r := 0; r < n; r++ {
			vri := v.At(r, i)
			if vri == 0 {
				continue
			}
			t := inv * vri
			for c := 0; c < n; c++ {
				dst.Set(r, c, dst.At(r, c)+t*v.At(c, i))
			}
		}
	}
	return dst
}
