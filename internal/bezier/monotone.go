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
//
// The coefficients of one coordinate go into a reused buffer (on the stack
// up to degree 8), so a curve that certifies without subdividing, as
// fitted curves do, allocates nothing; the first subdivision allocates the
// piece stack once for the whole call.
func StrictlyMonotone(c *Curve, alpha []float64) bool {
	if len(alpha) != c.Dim() {
		panic("bezier: alpha dimension mismatch")
	}
	k := c.Degree()
	if k == 0 {
		panic("bezier: derivative of degenerate curve")
	}
	var small [8]float64
	coef := small[:0]
	if k > len(small) {
		coef = make([]float64, 0, k)
	}
	var stack []float64
	for j, a := range alpha {
		if !(a > 0 || a < 0) {
			return false
		}
		// αⱼ times the hodograph's coefficients k·(P_{r+1,j} − P_{r,j}),
		// in Derivative's arithmetic.
		coef = coef[:0]
		for r := 0; r < k; r++ {
			coef = append(coef, a*(float64(k)*(c.Points[r+1][j]-c.Points[r][j])))
		}
		var ok bool
		if ok, stack = certifyPositive(coef, stack); !ok {
			return false
		}
	}
	return true
}

// certifyPositive reports whether the 1-D Bézier polynomial with Bernstein
// coefficients coef, one coordinate of αⱼ·f′ⱼ, is certified ≥ 0 and not
// identically zero on [0,1]. Undecided pieces are split at their midpoint
// by de Casteljau and visited depth first, left half first, on stack (one
// piece of len(coef) per level, grown on first use and returned for reuse),
// up to maxCertifyDepth.
func certifyPositive(coef []float64, stack []float64) (bool, []float64) {
	switch classify(coef) {
	case refuted:
		return false, stack
	case certified:
		return true, stack
	}
	n := len(coef)
	if need := n * (maxCertifyDepth + 1); len(stack) < need {
		stack = make([]float64, need)
	}
	var depth [maxCertifyDepth + 1]int
	copy(stack, coef)
	top := 1 // pieces on the stack; piece p is stack[p·n : (p+1)·n]
	for top > 0 {
		top--
		p := stack[top*n : (top+1)*n]
		switch classify(p) {
		case refuted:
			return false, stack
		case certified:
			continue
		}
		d := depth[top]
		if d == maxCertifyDepth {
			return false, stack
		}
		// Split in place: p becomes the right half and the left half goes
		// on top of it, so it is visited next.
		left := stack[(top+1)*n : (top+2)*n]
		left[0] = p[0]
		for level := 1; level < n; level++ {
			for i := 0; i < n-level; i++ {
				p[i] = (1-0.5)*p[i] + 0.5*p[i+1]
			}
			left[level] = p[0]
		}
		depth[top], depth[top+1] = d+1, d+1
		top += 2
	}
	return true, stack
}

// A piece's verdict from its coefficients alone.
const (
	undecided = iota
	certified // all ≥ 0, one > 0
	refuted   // an end coefficient, a value of the polynomial, is < 0
)

func classify(b []float64) int {
	if b[0] < 0 || b[len(b)-1] < 0 {
		return refuted
	}
	nonneg, pos := true, false
	for _, v := range b {
		nonneg = nonneg && v >= 0
		pos = pos || v > 0
	}
	if nonneg && pos {
		return certified
	}
	return undecided
}
