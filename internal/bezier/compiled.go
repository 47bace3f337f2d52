package bezier

// Compiled is an allocation-free evaluation form of a Curve for the
// projection kernels: the per-coordinate coefficients of f in powers of
// t = s − ½, plus those of ‖f(t+½)‖², precomputed once. Serving and the
// fit's projection step collapse a row's squared distance to the curve into
// one 1-D polynomial from these (DistPolyInto) and evaluate it hundreds of
// times per observation; the Curve methods would re-derive the basis (and
// allocate) on every call. A Compiled is safe for concurrent *reading*;
// methods that need scratch take caller-provided destination slices.
// CompileInto may rebuild the coefficients in place for an evolving curve of
// the same shape (the fit loop does this once per iteration), but only while
// no other goroutine is reading them.
//
// For the degrees the RPC supports (≤ 6) on s ∈ [0,1] the change of basis
// is well-conditioned, so values agree with the de Casteljau path to
// ~1e-15; exact bit-parity with Curve.Eval is not guaranteed.
type Compiled struct {
	deg, dim int
	// smono holds, coordinate-major, the coefficients of f_j(t + ½) in
	// powers of t: f_j(s) = Σ_c smono[j*(deg+1)+c]·(s − ½)^c. On
	// t ∈ [−½, ½] the shifted basis keeps coefficients small, which is what
	// makes the collapsed distance polynomial of DistPolyInto accurate at
	// degree 5–6 (the plain monomial form cancels catastrophically near
	// s = 1).
	smono []float64
	// snormSq holds the shifted-basis coefficients of ‖f(t+½)‖²
	// (degree 2·deg). Combined with a per-row cross term it collapses the
	// squared distance from any point to a single 1-D polynomial — see
	// DistPolyInto.
	snormSq []float64
	// basis caches BernsteinToMonomial(deg), so CompileInto recompiles an
	// evolving curve of the same shape with zero allocations.
	basis [][]float64
}

// DistPolyOrigin is the expansion point of the collapsed distance
// polynomial: evaluate it at t = s − DistPolyOrigin.
const DistPolyOrigin = 0.5

// Compile precomputes the centre-shifted monomial form of c.
func Compile(c *Curve) *Compiled {
	return CompileInto(&Compiled{}, c)
}

// CompileInto recompiles c into dst and returns dst, reusing dst's
// coefficient buffers (and its cached change-of-basis matrix) when the
// degree and dimension match; buffers are (re)allocated only on the first
// call or a shape change. The fit loop recompiles its evolving curve every
// iteration of Algorithm 1, so the steady state must be allocation-free.
//
// The rebuilt coefficients are visible to everything holding dst — in
// particular every worker of the fit's projection pool reads a single
// Compiled. Callers must only recompile while all of those readers are
// quiescent (the fit worker pool recompiles between iterations, while its
// workers are parked on their job channels).
func CompileInto(dst *Compiled, c *Curve) *Compiled {
	k := c.Degree()
	d := c.Dim()
	if dst.deg != k || dst.dim != d || dst.basis == nil {
		dst.deg, dst.dim = k, d
		dst.smono = make([]float64, d*(k+1))
		dst.snormSq = make([]float64, 2*k+1)
		dst.basis = BernsteinToMonomial(k)
	}
	for i := range dst.snormSq {
		dst.snormSq[i] = 0
	}
	for j := 0; j < d; j++ {
		// Monomial coefficients of coordinate j: P·M_k row-by-row, built
		// in place of the shifted row.
		srow := dst.smono[j*(k+1) : (j+1)*(k+1)]
		for i := range srow {
			srow[i] = 0
		}
		for r := 0; r <= k; r++ {
			pj := c.Points[r][j]
			if pj == 0 {
				continue
			}
			brow := dst.basis[r]
			for col := 0; col <= k; col++ {
				srow[col] += pj * brow[col]
			}
		}
		// Ruffini–Horner Taylor shift of the row to the centre ½.
		for i := 0; i < k; i++ {
			for p := k - 1; p >= i; p-- {
				srow[p] += DistPolyOrigin * srow[p+1]
			}
		}
		for p := 0; p <= k; p++ {
			if srow[p] == 0 {
				continue
			}
			for q := 0; q <= k; q++ {
				dst.snormSq[p+q] += srow[p] * srow[q]
			}
		}
	}
	return dst
}

// Degree returns the polynomial degree.
func (cc *Compiled) Degree() int { return cc.deg }

// Dim returns the ambient dimension.
func (cc *Compiled) Dim() int { return cc.dim }

// ShiftedMono returns the flat centre-shifted coefficient array backing
// DistPolyInto: coordinate j occupies [j·(Degree()+1), (j+1)·(Degree()+1)).
// The slice aliases internal storage; callers must not modify it. It exists
// so the serving kernel can collapse a row's distance polynomial straight
// into registers.
func (cc *Compiled) ShiftedMono() []float64 { return cc.smono }

// ShiftedNormSq returns the centre-shifted coefficients of ‖f(t+½)‖²
// (length 2·Degree()+1), aliasing internal storage.
func (cc *Compiled) ShiftedNormSq() []float64 { return cc.snormSq }

// DistPolyInto fills dst (len 2·Degree()+1) with the coefficients of the
// squared-distance profile ‖x − f(s)‖² expanded around DistPolyOrigin —
// evaluate it with EvalPoly at t = s − DistPolyOrigin. It collapses the
// ambient dimension away: ‖x−f‖² = ‖f‖² − 2·x·f + ‖x‖². After this O(d·k)
// setup, every distance evaluation is one Horner pass of a 1-D polynomial
// whatever d is. Returns dst.
//
// Near the curve the collapsed form cancels almost completely, so evaluated
// values can differ from the direct sum of squares by ~d·1e-15 (and dip
// infinitesimally below zero); the *location* of its stationary points — all
// the projection step needs — is unaffected at that scale.
func (cc *Compiled) DistPolyInto(dst, x []float64) []float64 {
	k := cc.deg
	copy(dst, cc.snormSq)
	var x2 float64
	for j, v := range x {
		x2 += v * v
		row := cc.smono[j*(k+1) : (j+1)*(k+1)]
		t := 2 * v
		for c, mc := range row {
			dst[c] -= t * mc
		}
	}
	dst[0] += x2
	return dst
}

// EvalPoly evaluates a polynomial given by ascending coefficients at s by
// Horner's rule.
func EvalPoly(coeffs []float64, s float64) float64 {
	acc := 0.0
	for p := len(coeffs) - 1; p >= 0; p-- {
		acc = acc*s + coeffs[p]
	}
	return acc
}
