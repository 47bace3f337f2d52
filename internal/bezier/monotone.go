package bezier

// Strict monotonicity of a Bézier curve, decided from its hodograph.
//
// Coordinate j of a degree-k curve has derivative f′ⱼ(s) = Σ_r h_r·B_{k−1,r}(s)
// with Bernstein coefficients h_r = k·(P_{r+1,j} − P_{r,j}) (Eq. 17). The
// Bernstein basis is positive on (0,1), so if every h_r ≥ 0 and one is > 0
// then f′ⱼ > 0 on the open interval and fⱼ is strictly increasing. The end
// coefficients are the values f′ⱼ(0) and f′ⱼ(1), so a negative one proves
// the opposite. Between the two, de Casteljau subdivision at the midpoint
// gives each half its own coefficients, which converge to the derivative's
// values as the pieces shrink; the certificate recurses on the halves.

// maxCertifyDepth caps the midpoint subdivision of StrictlyMonotone. A
// piece still undecided at this depth (width 2⁻⁴⁰) counts as not
// monotone. That is what happens when f′ⱼ touches zero at an interior
// point the dyadic midpoints never land on: the pieces around the touch
// never have all-nonnegative coefficients and never a negative end.
const maxCertifyDepth = 40

// StrictlyMonotone reports whether every coordinate of c is strictly
// monotone on [0,1]: increasing where alpha[j] > 0, decreasing where
// alpha[j] < 0. This is the executable form of Proposition 1, for any
// degree. It certifies each coordinate from the Bernstein coefficients of
// αⱼ·f′ⱼ, subdividing at midpoints up to maxCertifyDepth; the answer comes
// from the coefficients, not from samples of the curve. A coordinate whose
// derivative touches zero at an interior point reports false unless a
// midpoint lands on the touch. A zero (or NaN) alpha entry reports false.
// It panics if alpha has the wrong length.
func StrictlyMonotone(c *Curve, alpha []float64) bool {
	if len(alpha) != c.Dim() {
		panic("bezier: alpha dimension mismatch")
	}
	h := c.Derivative()
	for j, a := range alpha {
		if !(a > 0 || a < 0) {
			return false
		}
		pts := make([][]float64, len(h.Points))
		for r, p := range h.Points {
			pts[r] = []float64{a * p[j]}
		}
		if !certifyPositive(&Curve{Points: pts}, 0) {
			return false
		}
	}
	return true
}

// certifyPositive reports whether the 1-D Bézier polynomial g, a piece of
// αⱼ·f′ⱼ at subdivision depth depth, is certified ≥ 0 and not identically
// zero on its interval.
func certifyPositive(g *Curve, depth int) bool {
	b := g.Points
	if b[0][0] < 0 || b[len(b)-1][0] < 0 {
		return false
	}
	nonneg, pos := true, false
	for _, p := range b {
		nonneg = nonneg && p[0] >= 0
		pos = pos || p[0] > 0
	}
	if nonneg && pos {
		return true
	}
	if depth == maxCertifyDepth {
		return false
	}
	l, r := g.Split(0.5)
	return certifyPositive(l, depth+1) && certifyPositive(r, depth+1)
}
