// Package polyroot finds all complex roots of real-coefficient polynomials
// with the Aberth–Ehrlich simultaneous iteration. The RPC projection
// condition (f(s) − x)·f′(s) = 0 (Eq. 20/22) is a degree-5 polynomial in s;
// the paper cites Jenkins–Traub as one way to solve it directly, and this
// package provides that "exact projector" as the alternative to the
// grid-seeded Newton projector (ablation A1).
package polyroot

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Poly represents a real polynomial by its coefficients in ascending order:
// Coeffs[k] multiplies s^k.
type Poly struct {
	Coeffs []float64
}

// NewPoly trims trailing (near-)zero leading coefficients and returns the
// polynomial. A zero polynomial is allowed but has no roots.
func NewPoly(coeffs []float64) Poly {
	end := len(coeffs)
	for end > 1 && math.Abs(coeffs[end-1]) < 1e-300 {
		end--
	}
	c := make([]float64, end)
	copy(c, coeffs[:end])
	return Poly{Coeffs: c}
}

// Degree returns the polynomial degree (0 for constants).
func (p Poly) Degree() int { return len(p.Coeffs) - 1 }

// Eval evaluates p at a complex point by Horner's rule.
func (p Poly) Eval(z complex128) complex128 {
	var acc complex128
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		acc = acc*z + complex(p.Coeffs[k], 0)
	}
	return acc
}

// EvalReal evaluates p at a real point by Horner's rule.
func (p Poly) EvalReal(x float64) float64 {
	var acc float64
	for k := len(p.Coeffs) - 1; k >= 0; k-- {
		acc = acc*x + p.Coeffs[k]
	}
	return acc
}

// Derivative returns p′.
func (p Poly) Derivative() Poly {
	if len(p.Coeffs) <= 1 {
		return Poly{Coeffs: []float64{0}}
	}
	d := make([]float64, len(p.Coeffs)-1)
	for k := 1; k < len(p.Coeffs); k++ {
		d[k-1] = float64(k) * p.Coeffs[k]
	}
	return Poly{Coeffs: d}
}

// Roots returns all complex roots of p using Aberth–Ehrlich iteration.
// Constants (degree 0) have no roots. The iteration is started on a circle
// of radius determined by the Cauchy bound, slightly perturbed to break
// symmetry, and polished with a few Newton steps.
func (p Poly) Roots() []complex128 {
	n := p.Degree()
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []complex128{complex(-p.Coeffs[0]/p.Coeffs[1], 0)}
	}
	lead := p.Coeffs[n]
	// Cauchy bound: all roots lie within 1 + max|a_k/a_n|.
	bound := 0.0
	for _, c := range p.Coeffs[:n] {
		if r := math.Abs(c / lead); r > bound {
			bound = r
		}
	}
	bound++
	// Initial guesses on a circle of radius ~bound/2 with an irrational
	// angular offset so no guess starts on the real axis (real-axis
	// symmetry can stall the iteration for real-coefficient polynomials).
	z := make([]complex128, n)
	r := bound / 2
	if r == 0 {
		r = 0.5
	}
	for k := 0; k < n; k++ {
		theta := 2*math.Pi*float64(k)/float64(n) + 0.4
		z[k] = cmplx.Rect(r, theta)
	}
	dp := p.Derivative()
	const maxIter = 200
	for iter := 0; iter < maxIter; iter++ {
		maxStep := 0.0
		for k := 0; k < n; k++ {
			pk := p.Eval(z[k])
			dk := dp.Eval(z[k])
			if dk == 0 {
				z[k] += complex(1e-8, 1e-8)
				continue
			}
			newton := pk / dk
			var repulse complex128
			for j := 0; j < n; j++ {
				if j == k {
					continue
				}
				diff := z[k] - z[j]
				if diff == 0 {
					diff = complex(1e-12, 1e-12)
				}
				repulse += 1 / diff
			}
			denom := 1 - newton*repulse
			var step complex128
			if denom == 0 {
				step = newton
			} else {
				step = newton / denom
			}
			z[k] -= step
			if s := cmplx.Abs(step); s > maxStep {
				maxStep = s
			}
		}
		if maxStep < 1e-14*(1+bound) {
			break
		}
	}
	// Newton polish.
	for k := 0; k < n; k++ {
		for i := 0; i < 4; i++ {
			dk := dp.Eval(z[k])
			if dk == 0 {
				break
			}
			z[k] -= p.Eval(z[k]) / dk
		}
	}
	return z
}

// RealRootsIn returns the real roots of p inside [lo, hi], deduplicated
// within tol. A complex root counts as real when |Im| ≤ tol·(1+|Re|).
func (p Poly) RealRootsIn(lo, hi, tol float64) []float64 {
	if hi < lo {
		panic(fmt.Sprintf("polyroot: inverted interval [%v,%v]", lo, hi))
	}
	if tol <= 0 {
		tol = 1e-9
	}
	var out []float64
	for _, z := range p.Roots() {
		re, im := real(z), imag(z)
		if math.Abs(im) > tol*(1+math.Abs(re)) {
			continue
		}
		if re < lo-tol || re > hi+tol {
			continue
		}
		if re < lo {
			re = lo
		}
		if re > hi {
			re = hi
		}
		dup := false
		for _, r := range out {
			if math.Abs(r-re) <= tol {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, re)
		}
	}
	return out
}
