package core

import (
	"math"

	"rpcrank/internal/bezier"
)

// engine is the compiled projection kernel: the curve's squared-distance
// profile collapsed to a 1-D polynomial (bezier.Compiled), plus the scratch
// that profile and its two derivatives need. One engine serves one
// goroutine; clone() hands an independent scratch to another worker while
// sharing the immutable compiled coefficients.
//
// project runs one decision tree for every non-quintic row, fitted or
// served: a grid seed, bracket classification by the signs of the profile's
// derivative, and safeguarded Newton refinement from the best grid node to
// machine precision — cubicNewtonKernel for cubic curves, projectSeeded for
// other degrees. Quintic engines solve exact roots instead. Tests hold every
// path through it to internal/oracle, an independent dense-scan projector,
// under the contract stated on Scorer.
type engine struct {
	quintic bool
	cells   int
	comp    *bezier.Compiled
	curve   *bezier.Curve

	// dc/d1c/d2c hold the distance profile D and its first two derivatives
	// for the row being projected, as polynomials in t = s − ½.
	dc, d1c, d2c []float64

	// warmRows/warmHits count warm-started projections and validated
	// basins for fit telemetry. One engine is owned by one goroutine, so
	// plain fields suffice; the fit pool reads them only behind its
	// WaitGroup barrier.
	warmRows int64
	warmHits int64
}

// newEngine compiles c for the projection strategy in opts. opts must have
// defaults applied. Projector values outside the enum project like
// ProjectorNewton.
func newEngine(c *bezier.Curve, opts Options) *engine {
	e := &engine{
		quintic: opts.Projector == ProjectorQuintic,
		cells:   opts.GridCells,
		comp:    bezier.Compile(c),
		curve:   c,
	}
	e.initScratch()
	return e
}

func (e *engine) initScratch() {
	n := 2*e.comp.Degree() + 1
	e.dc = make([]float64, n)
	e.d1c = make([]float64, n-1)
	e.d2c = make([]float64, n-2)
}

// clone returns an engine sharing the compiled coefficients but owning
// fresh scratch, for use by another goroutine.
func (e *engine) clone() *engine {
	c := &engine{quintic: e.quintic, cells: e.cells, comp: e.comp, curve: e.curve}
	c.initScratch()
	return c
}

// recompile points the engine at c and rebuilds the compiled coefficients
// in place, reusing their buffers (bezier.CompileInto). Engines cloned from
// this one share the Compiled, so one recompile refreshes all of them — that
// is exactly what the fit worker pool wants between iterations of
// Algorithm 1, and why recompile must only run while every sharing engine
// is quiescent (the pool's workers are parked on their job channels).
func (e *engine) recompile(c *bezier.Curve) {
	// A shape change cannot be honoured: clones sharing e.comp keep their
	// own dc/d1c/d2c scratch that recompile cannot reach, so resizing here
	// would fix this engine and corrupt every clone. No fit-loop caller
	// changes degree or dimension mid-run; enforce that rather than assume.
	if c.Degree() != e.comp.Degree() || c.Dim() != e.comp.Dim() {
		panic("core: engine.recompile across curve shapes; build a new engine")
	}
	e.curve = c
	bezier.CompileInto(e.comp, c)
}

// projectWarm is project seeded by the row's score from the previous
// Algorithm-1 iteration instead of a fresh grid scan. Between consecutive
// iterations the curve barely moves, so the previous score almost always
// sits inside the basin of the new minimiser; safeguarded Newton from there
// costs a handful of polynomial passes instead of a GridCells-point scan.
// Validity is checked, not assumed:
//
//   - the derivative-sign bracket [sPrev−h, sPrev+h] (h the grid spacing)
//     must enclose a minimum, the same classification project applies to its
//     grid bracket; and
//   - the attained distance must not regress past the previous iterate's
//     parameter, i.e. D(s) ≤ D(sPrev) up to roundoff — Newton that wandered
//     out of the basin cannot silently inflate the objective.
//
// Cubic curves take projectWarmCubic, which refines on the serving kernel's
// register-resident Newton tail; other degrees refine with newtonRefine over
// the collapsed profile. Rows failing either check fall back to the cold
// decision tree — the one project would take, so a fallback is bit-equal to
// a cold projection — and report warm=false; the fit stays within the
// existing convergence contract either way. The quintic strategy solves exact
// polynomial roots and takes no seed; it always projects cold.
func (e *engine) projectWarm(u []float64, sPrev float64) (s, distSq float64, warm bool) {
	if e.quintic {
		s, d := projectQuintic(e.curve, u)
		return s, d, false
	}
	if len(e.dc) == 7 {
		return e.projectWarmCubic(u, sPrev)
	}
	e.comp.DistPolyInto(e.dc, u)
	e.fillDerivatives()
	lo, hi := e.warmBracket(sPrev)
	ga := bezier.EvalPoly(e.d1c, lo-bezier.DistPolyOrigin)
	gb := bezier.EvalPoly(e.d1c, hi-bezier.DistPolyOrigin)
	if ga <= 0 && gb >= 0 {
		dPrev := bezier.EvalPoly(e.dc, sPrev-bezier.DistPolyOrigin)
		s = e.newtonRefine(lo, hi, sPrev)
		if d := bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin); d <= dPrev+1e-12*(1+dPrev) {
			return s, nonNeg(d), true
		}
		// Newton wandered: fall through to the cold path below.
	}
	// No validated basin around the warm start (it moved, or the row
	// projects onto a domain edge, which only the grid pass detects). The
	// profile in e.dc is already collapsed; only the seeding is redone.
	s, d := e.projectSeeded()
	return s, d, false
}

// warmBracket is the bracket [sPrev−h, sPrev+h] ∩ [0, 1] a warm start must
// validate, h the grid spacing.
func (e *engine) warmBracket(sPrev float64) (lo, hi float64) {
	h := 1 / float64(e.cells)
	return max(sPrev-h, 0), min(sPrev+h, 1)
}

// projectWarmCubic is projectWarm for a cubic curve. It collapses the row's
// distance profile straight into registers — the arithmetic of
// bezier.Compiled.DistPolyInto, term for term, so the coefficients are
// bit-equal to the ones project would compute — applies the same bracket
// and no-regress checks, and refines from sPrev with cubicNewtonTail, the
// tail of the cold serving kernel. A row failing a check falls back exactly
// as project would, to cubicNewtonKernel on the same coefficients.
func (e *engine) projectWarmCubic(u []float64, sPrev float64) (s, distSq float64, warm bool) {
	const origin = bezier.DistPolyOrigin
	snorm := e.comp.ShiftedNormSq()
	smono := e.comp.ShiftedMono()
	c0, c1, c2, c3 := snorm[0], snorm[1], snorm[2], snorm[3]
	c4, c5, c6 := snorm[4], snorm[5], snorm[6]
	var x2 float64
	for j, v := range u {
		x2 += v * v
		t := 2 * v
		row := smono[j*4 : j*4+4]
		c0 -= t * row[0]
		c1 -= t * row[1]
		c2 -= t * row[2]
		c3 -= t * row[3]
	}
	c0 += x2
	// The profile stays in e.dc, where engine.canonical reads it.
	e.dc[0], e.dc[1], e.dc[2], e.dc[3], e.dc[4], e.dc[5], e.dc[6] = c0, c1, c2, c3, c4, c5, c6
	// D′ and D″ coefficients (in the same shifted basis).
	b0, b1, b2, b3, b4, b5 := c1, 2*c2, 3*c3, 4*c4, 5*c5, 6*c6
	e0, e1, e2, e3, e4 := b1, 2*b2, 3*b3, 4*b4, 5*b5

	lo, hi := e.warmBracket(sPrev)
	tl := lo - origin
	th := hi - origin
	ga := ((((b5*tl+b4)*tl+b3)*tl+b2)*tl+b1)*tl + b0
	gb := ((((b5*th+b4)*th+b3)*th+b2)*th+b1)*th + b0
	if ga <= 0 && gb >= 0 {
		t := sPrev - origin
		dPrev := (((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0
		s = cubicNewtonTail(b0, b1, b2, b3, b4, b5, e0, e1, e2, e3, e4, lo, hi, sPrev)
		t = s - origin
		if d := (((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0; d <= dPrev+1e-12*(1+dPrev) {
			return s, nonNeg(d), true
		}
	}
	s, d := cubicNewtonKernel(c0, c1, c2, c3, c4, c5, c6, e.cells, true)
	return s, d, false
}

// canonQuantum is the grid engine.canonical rounds a score to: 2⁻²⁶,
// about 1.5e-8. That is far wider than the few-ulp spread between two
// starts' Newton answers, so both round to the same node, and narrow enough
// that one Newton step from the node lands on the root to rounding.
const canonQuantum = 0x1p-26

// canonical returns the fit's canonical form of an interior minimiser s,
// with distance d, of the row whose profile project or projectWarm left in
// e.dc: s rounded to a multiple of canonQuantum, then one Newton step on D′
// from there, and the distance at the result. Started from the same node on
// the same profile, the step returns the same float whichever start, warm
// or cold, found s. The fit's iterations project every row through this,
// so their scores and objective do not depend on the warm start: Anderson
// acceleration multiplies any difference between iterates, and without
// this the last-ulp differences between warm and cold scores grew to
// score differences of up to 4e-2 between a warm and a cold fit. Edge
// minimisers (0 and 1), quintic engines, and a step that leaves the
// node's quantum, finds no minimum or raises the distance keep s.
func (e *engine) canonical(s, d float64) (float64, float64) {
	if e.quintic || !(s > 0 && s < 1) {
		return s, d
	}
	// s < 1, so s/canonQuantum < 2²⁶ and the conversion rounds exactly.
	sc := float64(int64(s/canonQuantum+0.5)) * canonQuantum
	t := sc - bezier.DistPolyOrigin
	dc := e.dc
	var g, h, ns, nd float64 // D′(t), D″(t), the Newton step's result and D there
	if len(dc) == 7 {
		// Cubic curves, the default, in straight-line code.
		c0, c1, c2, c3, c4, c5, c6 := dc[0], dc[1], dc[2], dc[3], dc[4], dc[5], dc[6]
		g = ((((6*c6*t+5*c5)*t+4*c4)*t+3*c3)*t+2*c2)*t + c1
		h = (((30*c6*t+20*c5)*t+12*c4)*t+6*c3)*t + 2*c2
		dsc := (((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0
		step := -g / h
		ns = sc + step
		// D(sc + step) by its Taylor series: |step| ≤ canonQuantum, so
		// the cubic term is below 2⁻⁷⁸ of D‴ and the sum is exact to
		// rounding, and D(sc) does not wait for the division.
		nd = dsc + step*(g+0.5*h*step)
	} else {
		for c := len(dc) - 1; c >= 1; c-- {
			g = g*t + float64(c)*dc[c]
		}
		for c := len(dc) - 1; c >= 2; c-- {
			h = h*t + float64(c*(c-1))*dc[c]
		}
		ns = sc - g/h
		nd = bezier.EvalPoly(dc, ns-bezier.DistPolyOrigin)
	}
	if !(h > 0 && ns > 0 && ns < 1 && math.Abs(ns-sc) <= canonQuantum) {
		return s, d
	}
	if !(nd <= d+1e-12*(1+d)) {
		return s, d
	}
	return ns, nonNeg(nd)
}

// project computes argmin_s ‖u − f(s)‖² and the attained squared distance
// for one normalised row. Zero allocations for the Newton strategy; the
// quintic strategy delegates to the exact root solver, which allocates.
func (e *engine) project(u []float64) (float64, float64) {
	if e.quintic {
		return projectQuintic(e.curve, u)
	}
	e.comp.DistPolyInto(e.dc, u)
	if len(e.dc) == 7 {
		// Cubic curves are THE hot path (rpcd's default degree); they get
		// a fully inlined kernel.
		return e.projectCubicNewton()
	}
	e.fillDerivatives()
	return e.projectSeeded()
}

// fillDerivatives derives the d1c/d2c coefficient arrays from the distance
// profile currently in e.dc.
func (e *engine) fillDerivatives() {
	for c := 1; c < len(e.dc); c++ {
		e.d1c[c-1] = float64(c) * e.dc[c]
	}
	for c := 1; c < len(e.d1c); c++ {
		e.d2c[c-1] = float64(c) * e.d1c[c]
	}
}

// projectSeeded is the cold decision tree of non-cubic curves — grid seed,
// bracket classification, safeguarded Newton — over the already-collapsed
// profile in e.dc/d1c/d2c. project and the warm-start fallback both land
// here, so a row never pays the profile collapse twice.
func (e *engine) projectSeeded() (float64, float64) {
	// Grid pass: the best of cells+1 evenly spaced nodes on [0,1].
	h := 1 / float64(e.cells)
	bestI := 0
	bestV := math.Inf(1)
	for i := 0; i <= e.cells; i++ {
		s := float64(i) * h
		if v := bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin); v < bestV {
			bestV, bestI = v, i
		}
	}
	return e.refineSeed(bestI, bestV)
}

// refineSeed is projectSeeded after its grid pass: bracket classification
// and safeguarded Newton from grid node bestI, whose profile value is
// bestV. It is a separate function so CPU profiles split the grid scan
// from the refinement by function name.
func (e *engine) refineSeed(bestI int, bestV float64) (float64, float64) {
	h := 1 / float64(e.cells)
	lo := float64(bestI-1) * h
	hi := float64(bestI+1) * h
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	s0 := float64(bestI) * h

	// Bracket classification: only a bracket whose profile slopes down at
	// lo and up at hi encloses an interior minimum worth refining. Anything
	// else (the grid best sat on a domain edge, or a non-unimodal profile
	// confused the bracket) keeps the best grid node, which is exact at the
	// edges, where the minimiser is 0 or 1.
	ga := bezier.EvalPoly(e.d1c, lo-bezier.DistPolyOrigin)
	gb := bezier.EvalPoly(e.d1c, hi-bezier.DistPolyOrigin)
	if !(ga <= 0 && gb >= 0) {
		return s0, nonNeg(bestV)
	}

	s := e.newtonRefine(lo, hi, s0)
	return s, nonNeg(bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin))
}

// newtonRefine is the safeguarded Newton iteration on D′ over the prepared
// d1c/d2c profile, from start inside the sign bracket [a, b] — the tail of
// projectSeeded and of projectWarm's non-cubic rows (cubic rows refine in
// cubicNewtonTail instead). A step that leaves the current sign bracket is
// replaced by the bracket midpoint, so the iteration always converges. A
// Newton step that does not move s means s is a root to the last bit, so
// the loop stops there before the bracket safeguard could reject the step:
// at a fixpoint on the bracket end the step lands on a == s, and bisecting
// away from it would only walk back.
func (e *engine) newtonRefine(a, b, start float64) float64 {
	s := start
	for i := 0; i < 80; i++ {
		t := s - bezier.DistPolyOrigin
		gs := bezier.EvalPoly(e.d1c, t)
		if gs == 0 {
			break
		}
		if gs < 0 {
			a = s
		} else {
			b = s
		}
		nt := s - gs/bezier.EvalPoly(e.d2c, t)
		if nt == s {
			break
		}
		if !(nt > a && nt < b) {
			nt = 0.5 * (a + b)
		}
		if nt == s {
			break
		}
		s = nt
	}
	return s
}

// projectCubicNewton is project's entry into the cubic serving kernel,
// feeding it the collapsed profile from e.dc.
func (e *engine) projectCubicNewton() (float64, float64) {
	return cubicNewtonKernel(
		e.dc[0], e.dc[1], e.dc[2], e.dc[3], e.dc[4], e.dc[5], e.dc[6],
		e.cells, true)
}

// cubicNewtonKernel projects one row given its collapsed degree-6 distance
// profile c0..c6 (coefficients in powers of t = s − DistPolyOrigin): the
// profile and its derivatives live in registers, every evaluation is an
// unrolled polynomial pass, and the Newton seed is sharpened by a parabola
// through the best grid sample and its neighbours. Same decision tree as
// project; only the seed and the arithmetic differ, which the convergence
// contract absorbs. With wantDist false the attained distance
// is not evaluated (0 is returned) — serving only needs the score.
func cubicNewtonKernel(c0, c1, c2, c3, c4, c5, c6 float64, cells int, wantDist bool) (float64, float64) {
	const origin = bezier.DistPolyOrigin
	h := 1 / float64(cells)
	bestI := 0
	bestV := math.Inf(1)
	// Two grid points per iteration, Estrin-evaluated: the two profile
	// values are independent dependency chains the CPU overlaps, and the
	// pairwise scheme keeps each chain short.
	i := 0
	for ; i+1 <= cells; i += 2 {
		t := float64(i)*h - origin
		u := float64(i+1)*h - origin
		t2 := t * t
		u2 := u * u
		v := (c0 + c1*t) + t2*((c2+c3*t)+t2*((c4+c5*t)+t2*c6))
		w := (c0 + c1*u) + u2*((c2+c3*u)+u2*((c4+c5*u)+u2*c6))
		if v < bestV {
			bestV, bestI = v, i
		}
		if w < bestV {
			bestV, bestI = w, i+1
		}
	}
	if i <= cells {
		t := float64(i)*h - origin
		t2 := t * t
		if v := (c0 + c1*t) + t2*((c2+c3*t)+t2*((c4+c5*t)+t2*c6)); v < bestV {
			bestV, bestI = v, i
		}
	}
	return cubicNewtonFromSeed(c0, c1, c2, c3, c4, c5, c6, cells, bestI, bestV, wantDist)
}

// cubicNewtonFromSeed is cubicNewtonKernel after its grid scan: bracket
// classification and parabolic sharpening around grid node bestI with
// profile value bestV, then the refinement in cubicNewtonTail. Like
// refineSeed it stays a separate function so CPU profiles split the scan
// from the refinement by function name.
func cubicNewtonFromSeed(c0, c1, c2, c3, c4, c5, c6 float64, cells, bestI int, bestV float64, wantDist bool) (float64, float64) {
	const origin = bezier.DistPolyOrigin
	// D′ and D″ coefficients (in the same shifted basis).
	b0, b1, b2, b3, b4, b5 := c1, 2*c2, 3*c3, 4*c4, 5*c5, 6*c6
	e0, e1, e2, e3, e4 := b1, 2*b2, 3*b3, 4*b4, 5*b5

	h := 1 / float64(cells)
	lo := float64(bestI-1) * h
	hi := float64(bestI+1) * h
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	s0 := float64(bestI) * h

	// Bracket classification by the sign of D′ at the bracket ends, as in
	// refineSeed. A miss publishes the seed node itself, so rows past the
	// curve's ends land on exactly 0 or 1.
	tl := lo - origin
	th := hi - origin
	ga := ((((b5*tl+b4)*tl+b3)*tl+b2)*tl+b1)*tl + b0
	gb := ((((b5*th+b4)*th+b3)*th+b2)*th+b1)*th + b0
	if !(ga <= 0 && gb >= 0) {
		if wantDist {
			return s0, nonNeg(bestV)
		}
		return s0, 0
	}

	// Parabolic seed through (lo, s0, hi): two extra profile evaluations
	// buy a Newton start ~h² from the root instead of ~h.
	s := s0
	if lo < s0 && s0 < hi {
		vl := (((((c6*tl+c5)*tl+c4)*tl+c3)*tl+c2)*tl+c1)*tl + c0
		vh := (((((c6*th+c5)*th+c4)*th+c3)*th+c2)*th+c1)*th + c0
		if den := vl - 2*bestV + vh; den > 0 {
			if off := 0.5 * h * (vl - vh) / den; off > -h && off < h {
				s = s0 + off
			}
		}
	}

	s = cubicNewtonTail(b0, b1, b2, b3, b4, b5, e0, e1, e2, e3, e4, lo, hi, s)
	if !wantDist {
		return s, 0
	}
	t := s - origin
	return s, nonNeg((((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0)
}

// cubicNewtonTail is the safeguarded Newton iteration on D′ of a cubic
// curve's profile, from s inside the sign bracket [a, b], with D′ given by
// its coefficients b0..b5 and D″ by e0..e4 (powers of t = s −
// DistPolyOrigin). Both the cold serving kernel and the fit's warm cubic
// rows refine here. It follows newtonRefine's control flow, fixpoint rule
// included, with two liberties. The derivatives are evaluated in
// Estrin form (pairwise, on a shared t²), which halves the dependency chain
// this serial loop sits on; and iteration also stops once a step is below
// 1e-13 — the tail iterations that skips move s by less than a tenth of the
// 1e-12 agreement budget and cost as much as the whole grid pass.
func cubicNewtonTail(b0, b1, b2, b3, b4, b5, e0, e1, e2, e3, e4, a, b, s float64) float64 {
	const origin = bezier.DistPolyOrigin
	for i := 0; i < 80; i++ {
		t := s - origin
		t2 := t * t
		gs := (b0 + b1*t) + t2*((b2+b3*t)+t2*(b4+b5*t))
		if gs == 0 {
			break
		}
		if gs < 0 {
			a = s
		} else {
			b = s
		}
		hs := (e0 + e1*t) + t2*((e2+e3*t)+t2*e4)
		nt := s - gs/hs
		if nt == s {
			break
		}
		if !(nt > a && nt < b) {
			nt = 0.5 * (a + b)
		}
		d := nt - s
		s = nt
		if d < 1e-13 && d > -1e-13 {
			break
		}
	}
	return s
}

// nonNeg clamps the collapsed profile's value at zero: for rows on the
// curve the cancellation can dip a hair below it, and a squared residual
// must not be negative.
func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
