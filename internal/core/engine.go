package core

import (
	"math"

	"rpcrank/internal/bezier"
)

// engine is the compiled projection kernel: the curve's squared-distance
// profile collapsed to a 1-D polynomial (bezier.Compiled), the seed grid,
// and for a cubic curve the grid table. It holds no scratch: a non-cubic
// row's profile lives in a profile on the projecting goroutine's stack,
// and a cubic row's in registers. So any number of goroutines may project
// through one engine at once, as long as none recompiles it meanwhile.
//
// project runs one decision tree for every row, fitted or served: a grid
// seed, bracket classification by the signs of the profile's derivative,
// and safeguarded Newton refinement from the best grid node to machine
// precision — cubicNewtonKernel for cubic curves, projectSeeded for other
// degrees. Tests hold every path through it to internal/oracle, an
// independent dense-scan projector, under the contract stated on Scorer.
//
// A cubic curve's engine also carries its cubicGrid: the terms of the
// kernel's arithmetic that do not depend on the row, tabulated once per
// compiled curve. It sits beside comp and is refreshed with it. Every
// cubic projection — Scorer.Score, project's cold passes and
// projectWarmCubic's fallback — runs the one cubicNewtonKernel over it.
type engine struct {
	cells int
	comp  *bezier.Compiled
	grid  *cubicGrid // nil unless comp is cubic
}

// newEngine compiles c for a seed grid of cells cells.
func newEngine(c *bezier.Curve, cells int) *engine {
	e := &engine{
		cells: cells,
		comp:  bezier.Compile(c),
	}
	if e.comp.Degree() == 3 {
		e.grid = newCubicGrid(cells)
		e.grid.set(e.comp.ShiftedNormSq())
	}
	return e
}

// recompile rebuilds the compiled coefficients for c in place, reusing
// their buffers (bezier.CompileInto), and refreshes the cubic grid table in
// place from them. It must only run while no goroutine projects through
// the engine: a fit restart recompiles its own engine at the start of each
// score step (projectPass).
func (e *engine) recompile(c *bezier.Curve) {
	// A shape change cannot be honoured: the grid table exists only for a
	// cubic, and a reshaped Compiled would reallocate the coefficient
	// slices a Scorer caches. No fit-loop caller changes degree or
	// dimension mid-run; enforce that rather than assume.
	if c.Degree() != e.comp.Degree() || c.Dim() != e.comp.Dim() {
		panic("core: engine.recompile across curve shapes; build a new engine")
	}
	bezier.CompileInto(e.comp, c)
	if e.grid != nil {
		e.grid.set(e.comp.ShiftedNormSq())
	}
}

// profile is the distance profile D of one row against a non-cubic curve,
// with its first two derivatives D′ and D″, as ascending coefficients in
// t = s − DistPolyOrigin. Its arrays are sized for maxDegree, the largest
// degree Fit and Load accept, so a projection keeps it on its own stack.
type profile struct {
	n   int // coefficients of D in use: 2·degree+1
	dc  [2*maxDegree + 1]float64
	d1c [2 * maxDegree]float64
	d2c [2*maxDegree - 1]float64
}

// d, d1 and d2 are D, D′ and D″ at t.
func (p *profile) d(t float64) float64  { return bezier.EvalPoly(p.dc[:p.n], t) }
func (p *profile) d1(t float64) float64 { return bezier.EvalPoly(p.d1c[:p.n-1], t) }
func (p *profile) d2(t float64) float64 { return bezier.EvalPoly(p.d2c[:p.n-2], t) }

// collapse fills p with the profile of normalised row u against cc
// (bezier.Compiled.DistPolyInto) and its derivatives.
func (p *profile) collapse(cc *bezier.Compiled, u []float64) {
	p.n = 2*cc.Degree() + 1
	cc.DistPolyInto(p.dc[:p.n], u)
	p.derive()
}

// derive fills D′ and D″ from the profile D in p.dc.
func (p *profile) derive() {
	for c := 1; c < p.n; c++ {
		p.d1c[c-1] = float64(c) * p.dc[c]
	}
	for c := 1; c < p.n-1; c++ {
		p.d2c[c-1] = float64(c) * p.d1c[c]
	}
}

// projectWarm is project seeded by the row's score from the previous
// Algorithm-1 iteration instead of a fresh grid scan. Between consecutive
// iterations the curve barely moves, so the previous score almost always
// sits inside the basin of the new minimiser; safeguarded Newton from there
// costs a handful of polynomial passes instead of a grid scan.
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
// existing convergence contract either way.
func (e *engine) projectWarm(u []float64, sPrev float64) (s, distSq float64, warm bool) {
	if e.grid != nil {
		return e.projectWarmCubic(u, sPrev)
	}
	const origin = bezier.DistPolyOrigin
	var p profile
	p.collapse(e.comp, u)
	lo, hi := e.warmBracket(sPrev)
	if p.d1(lo-origin) <= 0 && p.d1(hi-origin) >= 0 {
		dPrev := p.d(sPrev - origin)
		s = p.newtonRefine(lo, hi, sPrev)
		if d := p.d(s - origin); d <= dPrev+1e-12*(1+dPrev) {
			return s, nonNeg(d), true
		}
		// Newton wandered: fall through to the cold path below.
	}
	// No validated basin around the warm start (it moved, or the row
	// projects onto a domain edge, which only the grid pass detects). The
	// profile is already collapsed; only the seeding is redone.
	s, d := e.projectSeeded(&p)
	return s, d, false
}

// warmBracket is the bracket [sPrev−h, sPrev+h] ∩ [0, 1] a warm start must
// validate, h the grid spacing.
func (e *engine) warmBracket(sPrev float64) (lo, hi float64) {
	h := 1 / float64(e.cells)
	return max(sPrev-h, 0), min(sPrev+h, 1)
}

// cubicRow collapses normalised row u's part of a cubic curve's distance
// profile, c0..c3, into registers: the arithmetic of
// bezier.Compiled.DistPolyInto, term for term, so the coefficients are
// bit-equal to the ones it would compute. The rest of the profile is the
// curve's, in the grid table.
func (e *engine) cubicRow(u []float64) (c0, c1, c2, c3 float64) {
	snorm := e.comp.ShiftedNormSq()
	smono := e.comp.ShiftedMono()
	c0, c1, c2, c3 = snorm[0], snorm[1], snorm[2], snorm[3]
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
	return c0 + x2, c1, c2, c3
}

// projectWarmCubic is projectWarm for a cubic curve. It collapses the row
// with cubicRow, applies the same bracket and no-regress checks, and
// refines from sPrev with cubicNewtonTail, the tail of the cold serving
// kernel. A row failing a check falls back exactly as project would, to
// cubicNewtonKernel on the same coefficients and the grid table.
func (e *engine) projectWarmCubic(u []float64, sPrev float64) (s, distSq float64, warm bool) {
	const origin = bezier.DistPolyOrigin
	g := e.grid
	c0, c1, c2, c3 := e.cubicRow(u)
	c4, c5, c6 := g.c4, g.c5, g.c6
	// D′ and D″ coefficients (in the same shifted basis).
	b0, b1, b2 := c1, 2*c2, 3*c3
	e0, e1 := b1, 2*b2

	lo, hi := e.warmBracket(sPrev)
	tl := lo - origin
	th := hi - origin
	ga := ((((g.b5*tl+g.b4)*tl+g.b3)*tl+b2)*tl+b1)*tl + b0
	gb := ((((g.b5*th+g.b4)*th+g.b3)*th+b2)*th+b1)*th + b0
	if ga <= 0 && gb >= 0 {
		t := sPrev - origin
		dPrev := (((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0
		s = cubicNewtonTail(b0, b1, b2, g.b3, g.b4, g.b5, e0, e1, g.e2, g.e3, g.e4, lo, hi, sPrev)
		t = s - origin
		if d := (((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0; d <= dPrev+1e-12*(1+dPrev) {
			return s, nonNeg(d), true
		}
	}
	s, d := cubicNewtonKernel(g, c0, c1, c2, c3, true)
	return s, d, false
}

// project computes argmin_s ‖u − f(s)‖² and the attained squared distance
// for one normalised row. Zero allocations.
func (e *engine) project(u []float64) (float64, float64) {
	if e.grid != nil {
		// Cubic curves are THE hot path (rpcd's default degree); they get
		// the register-resident kernel and build no profile.
		c0, c1, c2, c3 := e.cubicRow(u)
		return cubicNewtonKernel(e.grid, c0, c1, c2, c3, true)
	}
	var p profile
	p.collapse(e.comp, u)
	return e.projectSeeded(&p)
}

// projectSeeded is the cold decision tree of non-cubic curves — grid seed,
// bracket classification, safeguarded Newton — over the already-collapsed
// profile p. project, Scorer.Score and the warm-start fallback all land
// here, so a row never pays the profile collapse twice.
func (e *engine) projectSeeded(p *profile) (float64, float64) {
	// Grid pass: the best of cells+1 evenly spaced nodes on [0,1].
	h := 1 / float64(e.cells)
	bestI := 0
	bestV := math.Inf(1)
	for i := 0; i <= e.cells; i++ {
		s := float64(i) * h
		if v := p.d(s - bezier.DistPolyOrigin); v < bestV {
			bestV, bestI = v, i
		}
	}
	return e.refineSeed(p, bestI, bestV)
}

// refineSeed is projectSeeded after its grid pass: bracket classification
// and safeguarded Newton from grid node bestI, whose profile value is
// bestV. It is a separate function so CPU profiles split the grid scan
// from the refinement by function name.
func (e *engine) refineSeed(p *profile, bestI int, bestV float64) (float64, float64) {
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
	if !(p.d1(lo-bezier.DistPolyOrigin) <= 0 && p.d1(hi-bezier.DistPolyOrigin) >= 0) {
		return s0, nonNeg(bestV)
	}

	s := p.newtonRefine(lo, hi, s0)
	return s, nonNeg(p.d(s - bezier.DistPolyOrigin))
}

// newtonRefine is the safeguarded Newton iteration on D′ of p, from start
// inside the sign bracket [a, b] — the tail of projectSeeded and of
// projectWarm's non-cubic rows (cubic rows refine in cubicNewtonTail
// instead). A step that leaves the current sign bracket is replaced by the
// bracket midpoint, so the iteration always converges. A Newton step that
// does not move s means s is a root to the last bit, so the loop stops
// there before the bracket safeguard could reject the step: at a fixpoint
// on the bracket end the step lands on a == s, and bisecting away from it
// would only walk back.
func (p *profile) newtonRefine(a, b, start float64) float64 {
	s := start
	for i := 0; i < 80; i++ {
		t := s - bezier.DistPolyOrigin
		gs := p.d1(t)
		if gs == 0 {
			break
		}
		if gs < 0 {
			a = s
		} else {
			b = s
		}
		nt := s - gs/p.d2(t)
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

// cubicGrid is the row-independent half of cubicNewtonKernel's arithmetic
// for one compiled cubic curve on one seed grid. A row's distance profile
// D(t) = c0 + c1·t + … + c6·t⁶ (t = s − DistPolyOrigin) depends on the row
// only through c0..c3; c4..c6 are the curve's ‖f‖² coefficients
// (bezier.Compiled.ShiftedNormSq()[4:7]). So every term built from t and
// c4..c6 alone is computed once per curve instead of once per row: the
// grid nodes with their squares and high-order profile terms, and the
// Horner prefixes of D′ and D at every bracket end the kernel can pick.
// The kernel then performs the same IEEE operations in the same order as
// evaluating the whole polynomial per row, so its scores are bit-identical
// to that form (the differential tests keep it as their oracle).
//
// A table is built with the engine that owns the compiled curve and
// refreshed in place by set on every recompile, so a fit iteration
// allocates nothing for it. Like the Compiled it is read concurrently and
// written only while every reader is quiescent.
type cubicGrid struct {
	h          float64 // node spacing 1/cells
	c4, c5, c6 float64 // the curve's part of D
	b3, b4, b5 float64 // the curve's part of D′ = Σ b_k t^k
	e2, e3, e4 float64 // the curve's part of D″ = Σ e_k t^k

	// nodes[i] describes grid node i ∈ [0, cells] at t = i·h − ½.
	nodes []cubicNode
	// ends[j] describes the bracket end min(j·h, 1), j ∈ [0, cells+1]: a
	// seed at node i brackets [ends[max(i−1, 0)], ends[i+1]].
	ends []cubicEnd
}

// cubicNode is one grid node: t, t² and L = t²·((c4 + c5·t) + t²·c6), so
// the profile there is (c0 + c1·t) + t²·((c2 + c3·t) + L).
type cubicNode struct{ t, t2, l float64 }

// cubicEnd is one bracket end s, at t = s − ½, with the Horner prefixes
// g = (b5·t + b4)·t + b3 of D′ and d = (c6·t + c5)·t + c4 of D.
type cubicEnd struct{ s, t, g, d float64 }

// newCubicGrid allocates the table for a seed grid of cells cells; set
// fills it.
func newCubicGrid(cells int) *cubicGrid {
	return &cubicGrid{
		h:     1 / float64(cells),
		nodes: make([]cubicNode, cells+1),
		ends:  make([]cubicEnd, cells+2),
	}
}

// set refreshes the table in place for a curve whose shifted ‖f‖²
// coefficients are snorm (length 7). The node and bracket positions are
// the expressions the kernel evaluated per row before it had a table:
// i·h − ½ at node i, and i·h clipped into [0, 1] at a bracket end.
func (g *cubicGrid) set(snorm []float64) {
	const origin = bezier.DistPolyOrigin
	c4, c5, c6 := snorm[4], snorm[5], snorm[6]
	g.c4, g.c5, g.c6 = c4, c5, c6
	g.b3, g.b4, g.b5 = 4*c4, 5*c5, 6*c6
	g.e2, g.e3, g.e4 = 3*g.b3, 4*g.b4, 5*g.b5
	for i := range g.nodes {
		t := float64(i)*g.h - origin
		t2 := t * t
		g.nodes[i] = cubicNode{t: t, t2: t2, l: t2 * ((c4 + c5*t) + t2*c6)}
	}
	for j := range g.ends {
		s := float64(j) * g.h
		if s > 1 {
			s = 1
		}
		t := s - origin
		g.ends[j] = cubicEnd{s: s, t: t, g: (g.b5*t+g.b4)*t + g.b3, d: (c6*t+c5)*t + c4}
	}
}

// cubicNewtonKernel projects one row of a cubic curve given the
// row-dependent coefficients c0..c3 of its collapsed degree-6 distance
// profile (powers of t = s − DistPolyOrigin); the rest of the profile is
// the curve's, read from its grid table g. The profile and its derivatives
// live in registers, every evaluation is an unrolled polynomial pass, and
// the Newton seed is sharpened by a parabola through the best grid sample
// and its neighbours. Same decision tree as project; only the seed and the
// arithmetic differ, which the convergence contract absorbs. With wantDist
// false the attained distance is not evaluated (0 is returned) — serving
// only needs the score.
func cubicNewtonKernel(g *cubicGrid, c0, c1, c2, c3 float64, wantDist bool) (float64, float64) {
	nodes := g.nodes
	bestI := 0
	bestV := math.Inf(1)
	// Two grid nodes per iteration: the two profile values are independent
	// dependency chains the CPU overlaps.
	i := 0
	for ; i+1 < len(nodes); i += 2 {
		p, q := &nodes[i], &nodes[i+1]
		v := (c0 + c1*p.t) + p.t2*((c2+c3*p.t)+p.l)
		w := (c0 + c1*q.t) + q.t2*((c2+c3*q.t)+q.l)
		if v < bestV {
			bestV, bestI = v, i
		}
		if w < bestV {
			bestV, bestI = w, i+1
		}
	}
	if i < len(nodes) {
		p := &nodes[i]
		if v := (c0 + c1*p.t) + p.t2*((c2+c3*p.t)+p.l); v < bestV {
			bestV, bestI = v, i
		}
	}
	return cubicNewtonFromSeed(g, c0, c1, c2, c3, bestI, bestV, wantDist)
}

// cubicNewtonFromSeed is cubicNewtonKernel after its grid scan: bracket
// classification and parabolic sharpening around grid node bestI with
// profile value bestV, then the refinement in cubicNewtonTail. Like
// refineSeed it stays a separate function so CPU profiles split the scan
// from the refinement by function name.
func cubicNewtonFromSeed(g *cubicGrid, c0, c1, c2, c3 float64, bestI int, bestV float64, wantDist bool) (float64, float64) {
	const origin = bezier.DistPolyOrigin
	// The row's part of D′ and D″ (in the same shifted basis).
	b0, b1, b2 := c1, 2*c2, 3*c3
	e0, e1 := b1, 2*b2

	h := g.h
	l := &g.ends[max(bestI-1, 0)]
	r := &g.ends[bestI+1]
	lo, hi := l.s, r.s
	s0 := float64(bestI) * h

	// Bracket classification by the sign of D′ at the bracket ends, as in
	// refineSeed. A miss publishes the seed node itself, so rows past the
	// curve's ends land on exactly 0 or 1.
	tl, th := l.t, r.t
	ga := ((l.g*tl+b2)*tl+b1)*tl + b0
	gb := ((r.g*th+b2)*th+b1)*th + b0
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
		vl := (((l.d*tl+c3)*tl+c2)*tl+c1)*tl + c0
		vh := (((r.d*th+c3)*th+c2)*th+c1)*th + c0
		if den := vl - 2*bestV + vh; den > 0 {
			if off := 0.5 * h * (vl - vh) / den; off > -h && off < h {
				s = s0 + off
			}
		}
	}

	s = cubicNewtonTail(b0, b1, b2, g.b3, g.b4, g.b5, e0, e1, g.e2, g.e3, g.e4, lo, hi, s)
	if !wantDist {
		return s, 0
	}
	t := s - origin
	return s, nonNeg((((((g.c6*t+g.c5)*t+g.c4)*t+c3)*t+c2)*t+c1)*t + c0)
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
