package core

import (
	"math"

	"rpcrank/internal/mat"
)

// boxStep is the exact control-point step: Eq. 26's minimiser of the
// fixed-score objective J(P) = ‖X − P·MZ‖²_F, taken under the box
// [ε, 1−ε] the interior control points must stay in (Prop. 1) instead of
// solved unconstrained and clamped afterwards.
//
// With the end points pinned, J separates by coordinate. For coordinate j
// and the k−1 interior points q = (P_{j,1}, …, P_{j,k−1}) it is, up to a
// constant, the box-constrained quadratic
//
//	φⱼ(q) = ½·qᵀHq − cⱼᵀq,  ε ≤ q ≤ 1−ε,
//
// with H = 2·A_II shared by every coordinate (A = (MZ)(MZ)ᵀ, I the
// interior indices) and cⱼ = 2·(B_{j,I} − A_{I,0}·P_{j,0} − A_{I,k}·P_{j,k})
// for B = X·MZᵀ. The factor 2 is dropped throughout: it scales φ and moves
// no minimiser.
//
// The problem has at most five variables (degree 6), so it is solved
// exactly by enumerating faces of the box: every split of the variables
// into free ones and ones held at a bound gives a candidate, the
// stationary point of φ on that face, found by a Cholesky solve on the
// free block. The minimiser of a convex φ over the box is the stationary
// point of the face it lies on, so the feasible candidate of least φ is
// the minimiser whenever its free block is non-singular, which holds for
// every face when A_II is. The current points are one more candidate, so
// the step never raises the fixed-score objective, also when A_II is
// singular (fewer distinct interior scores than interior points) and the
// minimiser is not unique: the current points are then kept unless some
// face is strictly better.
//
// The Cholesky factor of each free block is shared by all coordinates and
// every bound assignment of its face, so a step factors 2^(k−1) blocks of
// size ≤ k−1 and solves 3^(k−1) triangular pairs per coordinate. All
// scratch is sized once per fit run.
type boxStep struct {
	m      int       // interior points, k−1
	lo, hi float64   // the box [ε, 1−ε]
	h      []float64 // A_II, m×m row-major
	chol   []float64 // per free mask, the m×m lower Cholesky factor of H_FF
	ok     []bool    // per free mask, whether H_FF factored
	order  []int     // per free mask, m indices: the free ones, then the bound ones
	nfree  []int     // per free mask, its number of free indices
	c      []float64 // the linear term of the coordinate being solved
	q      []float64 // candidate
	best   []float64 // best candidate so far
	rhs    []float64 // right-hand side of the face solve
}

func newBoxStep(k int, eps float64) *boxStep {
	m := k - 1
	faces := 1 << m
	b := &boxStep{
		m: m, lo: eps, hi: 1 - eps,
		h:     make([]float64, m*m),
		chol:  make([]float64, faces*m*m),
		ok:    make([]bool, faces),
		order: make([]int, 0, faces*m),
		nfree: make([]int, faces),
		c:     make([]float64, m),
		q:     make([]float64, m),
		best:  make([]float64, m),
		rhs:   make([]float64, m),
	}
	for mask := 0; mask < faces; mask++ {
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				b.order = append(b.order, i)
				b.nfree[mask]++
			}
		}
		for i := 0; i < m; i++ {
			if mask&(1<<i) == 0 {
				b.order = append(b.order, i)
			}
		}
	}
	return b
}

// face returns the free and the bound indices of free mask mask, each in
// increasing order.
func (b *boxStep) face(mask int) (free, fixed []int) {
	o := b.order[mask*b.m : (mask+1)*b.m]
	return o[:b.nfree[mask]], o[b.nfree[mask]:]
}

// step writes into dst (d×(k+1)) the control points P with every interior
// point replaced by the exact minimiser of its coordinate's quadratic, from
// A = (MZ)(MZ)ᵀ and B = X·MZᵀ of the current scores. The end points are
// copied from P, and P's interior must already lie in the box.
func (b *boxStep) step(dst, P, A, B *mat.Dense) {
	m, k := b.m, b.m+1
	for i := 0; i < m; i++ {
		for l := 0; l < m; l++ {
			b.h[i*m+l] = A.At(i+1, l+1)
		}
	}
	b.factorFaces()
	for j := 0; j < P.Rows(); j++ {
		p0, pk := P.At(j, 0), P.At(j, k)
		for i := 0; i < m; i++ {
			b.c[i] = B.At(j, i+1) - A.At(i+1, 0)*p0 - A.At(i+1, k)*pk
			b.best[i] = P.At(j, i+1)
		}
		b.solve()
		dst.Set(j, 0, p0)
		dst.Set(j, k, pk)
		for i := 0; i < m; i++ {
			dst.Set(j, i+1, b.best[i])
		}
	}
}

// factorFaces computes the Cholesky factor of H_FF for every free set F.
// A block that is not numerically positive definite marks its faces as
// skipped; the empty free set (the box's vertices) always factors.
func (b *boxStep) factorFaces() {
	m := b.m
	for mask := range b.ok {
		free, _ := b.face(mask)
		L := b.chol[mask*m*m : (mask+1)*m*m]
		b.ok[mask] = true
		for a, ia := range free {
			for c := 0; c <= a; c++ {
				s := b.h[ia*m+free[c]]
				for t := 0; t < c; t++ {
					s -= L[a*m+t] * L[c*m+t]
				}
				if a == c {
					if !(s > 0) {
						b.ok[mask] = false
						break
					}
					L[a*m+a] = math.Sqrt(s)
				} else {
					L[a*m+c] = s / L[c*m+c]
				}
			}
			if !b.ok[mask] {
				break
			}
		}
	}
}

// solve minimises the current coordinate's φ over the box, starting from
// the candidate already in b.best and keeping the first candidate of least
// φ in enumeration order.
func (b *boxStep) solve() {
	m := b.m
	bestPhi := b.phi(b.best)
	for mask, ok := range b.ok {
		if !ok {
			continue
		}
		free, fixed := b.face(mask)
		L := b.chol[mask*m*m : (mask+1)*m*m]
		for bounds := 0; bounds < 1<<len(fixed); bounds++ {
			for t, i := range fixed {
				if bounds&(1<<t) != 0 {
					b.q[i] = b.hi
				} else {
					b.q[i] = b.lo
				}
			}
			// Forward then back substitution: L·Lᵀ·q_F = c_F − H_FB·q_B.
			for a, ia := range free {
				s := b.c[ia]
				for _, i := range fixed {
					s -= b.h[ia*m+i] * b.q[i]
				}
				for t := 0; t < a; t++ {
					s -= L[a*m+t] * b.rhs[t]
				}
				b.rhs[a] = s / L[a*m+a]
			}
			inside := true
			for a := len(free) - 1; a >= 0; a-- {
				s := b.rhs[a]
				for t := a + 1; t < len(free); t++ {
					s -= L[t*m+a] * b.q[free[t]]
				}
				v := s / L[a*m+a]
				if !(v >= b.lo && v <= b.hi) {
					inside = false
					break
				}
				b.q[free[a]] = v
			}
			if !inside {
				continue
			}
			if phi := b.phi(b.q); phi < bestPhi {
				bestPhi = phi
				copy(b.best, b.q)
			}
		}
	}
}

// phi evaluates ½·qᵀHq − cᵀq for the current coordinate.
func (b *boxStep) phi(q []float64) float64 {
	m := b.m
	var s float64
	for i, qi := range q {
		var hq float64
		for l, ql := range q {
			hq += b.h[i*m+l] * ql
		}
		s += qi * (0.5*hq - b.c[i])
	}
	return s
}

// andersonMemory is the number of past differences Anderson acceleration
// mixes; andersonRestart is the number of plain exact steps the fit takes
// after its safeguard rejects an extrapolated iterate, before it
// extrapolates again.
const (
	andersonMemory  = 3
	andersonRestart = 3
)

// anderson is Anderson acceleration (type II, as in Walker & Ni, SIAM J.
// Numer. Anal. 49(4), 2011) of the fixed-point map x ↦ g(x) that one
// Algorithm-1 iteration applies to the control points: project, then take
// the exact step. From the residuals fᵢ = g(xᵢ) − xᵢ of the last few
// adopted iterates it forms x⁺ = g(x) − ΔG·γ, with γ the least-squares
// solution of ΔF·γ ≈ f over the differences ΔF, ΔG of consecutive
// residuals and images. The columns are oldest first; when the normal
// equations cannot separate a column from the older ones, the oldest
// column is dropped. The caller clamps x⁺ into the box and safeguards it
// by J. Everything is sized once per fit run.
type anderson struct {
	n            int
	cols         int       // valid difference columns, at most andersonMemory
	dF, dG       []float64 // andersonMemory columns of n, oldest first
	f            []float64 // scratch: the residual being pushed
	fPrev, gPrev []float64 // residual and image of the last pushed iterate
	havePrev     bool
	gram         []float64 // the normal equations ΔFᵀΔF, then their factor
	rhs          []float64 // ΔFᵀf, then γ
}

func newAnderson(n int) *anderson {
	const mem = andersonMemory
	return &anderson{
		n:     n,
		dF:    make([]float64, mem*n),
		dG:    make([]float64, mem*n),
		f:     make([]float64, n),
		fPrev: make([]float64, n),
		gPrev: make([]float64, n),
		gram:  make([]float64, mem*mem),
		rhs:   make([]float64, mem),
	}
}

// push records an adopted iterate x and its image g, adding the difference
// to the previously pushed pair as the newest column.
func (a *anderson) push(x, g []float64) {
	n := a.n
	for i := range a.f {
		a.f[i] = g[i] - x[i]
	}
	if a.havePrev {
		if a.cols == andersonMemory {
			copy(a.dF, a.dF[n:])
			copy(a.dG, a.dG[n:])
			a.cols--
		}
		df := a.dF[a.cols*n : (a.cols+1)*n]
		dg := a.dG[a.cols*n : (a.cols+1)*n]
		for i := range df {
			df[i] = a.f[i] - a.fPrev[i]
			dg[i] = g[i] - a.gPrev[i]
		}
		a.cols++
	}
	copy(a.fPrev, a.f)
	copy(a.gPrev, g)
	a.havePrev = true
}

// reset drops the difference columns; the last pushed pair stays, so the
// next push starts a new history from it.
func (a *anderson) reset() { a.cols = 0 }

// extrapolate writes x⁺ = g − ΔG·γ for the last pushed pair (x, g) into
// dst and reports true, or reports false with dst untouched when no column
// is usable.
func (a *anderson) extrapolate(dst []float64) bool {
	n := a.n
	for start := 0; start < a.cols; start++ {
		c := a.cols - start
		if !a.solveNormal(a.dF[start*n:a.cols*n], c) {
			continue
		}
		copy(dst, a.gPrev)
		for t := 0; t < c; t++ {
			dg := a.dG[(start+t)*n : (start+t+1)*n]
			for i, v := range dg {
				dst[i] -= a.rhs[t] * v
			}
		}
		return true
	}
	return false
}

// solveNormal solves ΔFᵀΔF·γ = ΔFᵀf over the c columns of dF by Cholesky,
// leaving γ in a.rhs. It fails when a pivot falls below 1e-10 of its
// diagonal entry: that column's part outside the span of the older ones is
// then under 1e-5 of its length, too little to trust.
func (a *anderson) solveNormal(dF []float64, c int) bool {
	n := a.n
	G := a.gram
	for r := 0; r < c; r++ {
		fr := dF[r*n : (r+1)*n]
		a.rhs[r] = mat.Dot(fr, a.fPrev)
		for s := 0; s <= r; s++ {
			G[r*c+s] = mat.Dot(fr, dF[s*n:(s+1)*n])
		}
	}
	for r := 0; r < c; r++ {
		diag := G[r*c+r]
		for s := 0; s <= r; s++ {
			v := G[r*c+s]
			for t := 0; t < s; t++ {
				v -= G[r*c+t] * G[s*c+t]
			}
			if r == s {
				if !(v > 1e-10*diag) {
					return false
				}
				G[r*c+r] = math.Sqrt(v)
			} else {
				G[r*c+s] = v / G[s*c+s]
			}
		}
	}
	for r := 0; r < c; r++ {
		v := a.rhs[r]
		for t := 0; t < r; t++ {
			v -= G[r*c+t] * a.rhs[t]
		}
		a.rhs[r] = v / G[r*c+r]
	}
	for r := c - 1; r >= 0; r-- {
		v := a.rhs[r]
		for t := r + 1; t < c; t++ {
			v -= G[t*c+r] * a.rhs[t]
		}
		a.rhs[r] = v / G[r*c+r]
	}
	return true
}
