package core

import (
	"context"
	"math"
	"time"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
	"rpcrank/internal/mat"
	"rpcrank/internal/optimize"
)

// engine is the compiled projection kernel: the curve's squared-distance
// profile collapsed to a 1-D polynomial (bezier.Compiled), plus the scratch
// that profile and its two derivatives need. One engine serves one
// goroutine; clone() hands an independent scratch to another worker while
// sharing the immutable compiled coefficients.
//
// project follows the exact decision tree of projectOne (project.go) — grid
// seed, bracket classification by derivative signs, safeguarded Newton
// refinement — so the two implementations agree on every row to ~1e-12:
// both converge to the same stationary point of the same profile, they just
// evaluate it differently (Horner on precomputed coefficients here, curve
// evaluations there). Keep the control flow in sync with projectOne and
// optimize.NewtonBisect.
type engine struct {
	kind  Projector
	cells int
	tol   float64
	comp  *bezier.Compiled
	curve *bezier.Curve

	// dc/d1c/d2c hold the distance profile D and its first two derivatives
	// for the row being projected, as polynomials in t = s − ½.
	dc, d1c, d2c []float64
	// distFn is dc bound as a plain function once, so the GSS/Brent
	// refinement strategies can reuse the optimizer implementations without
	// a per-row closure allocation.
	distFn func(float64) float64

	// Block-batched seeding scratch (projectBlockPacked): dots holds one
	// row block's X·Fᵀ tile against the compiled grid table (lazily
	// allocated by the wide-dimension GEMM branch; the fused d ≤ 4 kernels
	// never need it), seeds the per-row argmin indices. Both stay nil for
	// the quintic strategy, which takes no grid seed.
	dots  []float64
	seeds []int
	// stages carries the pre-built pprof stage-label contexts; labelCtx is
	// the goroutine-identity context they derive from (background unless a
	// pool worker owns this engine).
	labelCtx context.Context
	stages   stageCtxs

	// stageNs, when non-nil, accumulates wall time per projection stage —
	// the same gemm/seed/refine split the pprof labels expose — for fit
	// telemetry; warmRows/warmHits count warm-started projections and
	// validated basins. One engine is owned by one goroutine, so plain
	// fields suffice; the fit pool reads them only behind its WaitGroup
	// barrier. All stay zero/nil outside fit runs (serving pays a single
	// nil check per block).
	stageNs  *FitStageNanos
	warmRows int64
	warmHits int64
}

// projBlockRows is the row-block size of the batched seeding path: big
// enough that the shared grid-table GEMM amortises its setup, small enough
// that a block's dot tile (projBlockRows × (GridCells+1) float64s) stays in
// L1/L2 next to the rows themselves.
const projBlockRows = 64

// newEngine compiles c for the projection strategy in opts. opts must have
// defaults applied.
func newEngine(c *bezier.Curve, opts Options) *engine {
	e := &engine{
		kind:  opts.Projector,
		cells: opts.GridCells,
		tol:   opts.ProjTol,
		comp:  bezier.Compile(c),
		curve: c,
	}
	if e.kind != ProjectorQuintic {
		// The grid table lives on the shared Compiled: clones seed off the
		// same block, and CompileInto rebuilds it alongside the coefficients.
		e.comp.EnsureGrid(e.cells)
	}
	e.initScratch()
	return e
}

func (e *engine) initScratch() {
	n := 2*e.comp.Degree() + 1
	e.dc = make([]float64, n)
	e.d1c = make([]float64, n-1)
	e.d2c = make([]float64, n-2)
	e.distFn = func(s float64) float64 {
		return bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin)
	}
	if e.kind != ProjectorQuintic {
		// dots (the GEMM tile, ~17KB at the default grid) is only read by
		// the wide-dimension branch of projectBlockPacked; it is allocated
		// lazily there so the d ≤ 4 reality never carries it.
		e.seeds = make([]int, projBlockRows)
	}
	if e.labelCtx == nil {
		e.labelCtx = context.Background()
	}
}

// clone returns an engine sharing the compiled coefficients but owning
// fresh scratch, for use by another goroutine.
func (e *engine) clone() *engine {
	c := &engine{kind: e.kind, cells: e.cells, tol: e.tol, comp: e.comp, curve: e.curve}
	c.initScratch()
	return c
}

// setLabelCtx rebinds the engine's pprof stage labels onto ctx, so a pool
// worker's identity label survives the stage toggles of the block path.
func (e *engine) setLabelCtx(ctx context.Context) {
	e.labelCtx = ctx
	e.stages = stageCtxs{}
}

// stageLabels returns the engine's pre-built stage-label contexts, building
// them on first use: label contexts cost a handful of allocations each, so
// engines only pay for them once stage profiling actually runs a block.
func (e *engine) stageLabels() *stageCtxs {
	if e.stages.base == nil {
		e.stages = newStageCtxs(e.labelCtx)
	}
	return &e.stages
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
// costs a handful of Horner passes instead of a GridCells-point scan plus a
// 1-D search. Validity is checked, not assumed:
//
//   - the derivative-sign bracket [sPrev−h, sPrev+h] (h the grid spacing)
//     must enclose a minimum, the same classification project applies to its
//     grid bracket; and
//   - the attained distance must not regress past the previous iterate's
//     parameter, i.e. D(s) ≤ D(sPrev) up to roundoff — Newton that wandered
//     out of the basin cannot silently inflate the objective.
//
// Rows failing either check fall back to the cold decision tree — reusing
// the already-collapsed profile, so a fallback costs one grid scan extra,
// never a second collapse — and report warm=false; the fit stays within
// the existing convergence contract either way. The quintic strategy
// solves exact polynomial roots and takes no seed; it always projects
// cold.
func (e *engine) projectWarm(u []float64, sPrev float64) (s, distSq float64, warm bool) {
	if e.kind == ProjectorQuintic {
		s, d := projectQuintic(e.curve, u)
		return s, d, false
	}
	e.comp.DistPolyInto(e.dc, u)
	e.fillDerivatives()
	h := 1 / float64(e.cells)
	lo := sPrev - h
	hi := sPrev + h
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
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
	if e.kind == ProjectorNewton && len(e.dc) == 7 {
		s, d := e.projectCubicNewton()
		return s, d, false
	}
	s, d := e.projectSeeded()
	return s, d, false
}

// project computes argmin_s ‖u − f(s)‖² and the attained squared distance
// for one normalised row. Zero allocations for the GSS/Brent/Newton
// strategies; the quintic strategy delegates to the exact root solver
// (which allocates) to stay bit-identical with the reference path.
func (e *engine) project(u []float64) (float64, float64) {
	if e.kind == ProjectorQuintic {
		return projectQuintic(e.curve, u)
	}
	e.comp.DistPolyInto(e.dc, u)
	if e.kind == ProjectorNewton && len(e.dc) == 7 {
		// Cubic curves served through the Newton strategy are THE hot
		// path (rpcd's default); it gets a fully inlined kernel.
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

// projectSeeded is the cold decision tree — grid seed, bracket
// classification, strategy refinement, safeguarded Newton — over the
// already-collapsed profile in e.dc/d1c/d2c. project and the warm-start
// fallback both land here, so a row never pays the profile collapse twice.
func (e *engine) projectSeeded() (float64, float64) {
	// Grid pass — mirrors optimize.GridSeedBest over [0,1].
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

// refineSeed is projectSeeded after its grid pass: bracket classification,
// strategy refinement, and safeguarded Newton around grid node bestI, whose
// profile value is bestV. The block-batched path lands here with a seed
// found by the shared grid-table GEMM instead of the per-row scan — bestV is
// then re-evaluated from the collapsed profile with the same EvalPoly call
// the scan uses, so block and per-row projections are bit-identical whenever
// they agree on the argmin node (and within the 1e-12 engine contract when a
// near-exact tie makes them disagree).
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

	// Bracket classification — mirrors projectOne.
	ga := bezier.EvalPoly(e.d1c, lo-bezier.DistPolyOrigin)
	gb := bezier.EvalPoly(e.d1c, hi-bezier.DistPolyOrigin)
	if !(ga <= 0 && gb >= 0) {
		return s0, nonNeg(bestV)
	}

	start := s0
	switch e.kind {
	case ProjectorBrent:
		if s1, f1 := optimize.BrentMin(e.distFn, lo, hi, e.tol, 200); f1 < bestV {
			start = s1
		}
	case ProjectorNewton:
		// The grid best seeds Newton directly.
	default: // ProjectorGSS and unknown values
		if s1, f1 := optimize.GoldenSectionMin(e.distFn, lo, hi, e.tol, 200); f1 < bestV {
			start = s1
		}
	}

	s := e.newtonRefine(lo, hi, start)
	return s, nonNeg(bezier.EvalPoly(e.dc, s-bezier.DistPolyOrigin))
}

// newtonRefine is the safeguarded Newton iteration on D′ over the prepared
// d1c/d2c profile, from start inside the sign bracket [a, b] — the shared
// tail of projectSeeded and projectWarm, an inlined mirror of
// optimize.NewtonBisect (function-pointer indirection would dominate the
// refinement cost; the cubic kernel keeps its own register-resident Estrin
// copy). Sharing it is what keeps the warm and cold refinements in step,
// which the warm/cold parity contract depends on.
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
// project/projectOne; only the seed and the arithmetic differ, which the
// convergence contract absorbs. With wantDist false the attained distance
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
// classification, parabolic sharpening, and the Estrin-form safeguarded
// Newton refinement around grid node bestI with profile value bestV. The
// block-batched seeder calls it directly, having found bestI through the
// shared GEMM and re-evaluated bestV with the scan's own Estrin expression —
// the split is pure extraction, so the per-row kernel's results are
// unchanged bit for bit.
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

	// Bracket classification by the sign of D′ at the bracket ends —
	// mirrors projectOne. A miss publishes the seed node itself, so rows
	// past the curve's ends land on exactly 0 or 1.
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

	// Safeguarded Newton on D′ — control flow of optimize.NewtonBisect,
	// with two liberties. The derivatives are evaluated in Estrin form
	// (pairwise, on a shared t²), which halves the dependency chain this
	// serial loop sits on; and iteration stops once the step is below
	// 1e-13 instead of at the exact floating-point fixpoint — the tail
	// iterations that skips move s by less than a tenth of the 1e-12
	// agreement budget and cost as much as the whole grid pass.
	a, b := lo, hi
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
		if !(nt > a && nt < b) {
			nt = 0.5 * (a + b)
		}
		d := nt - s
		s = nt
		if d < 1e-13 && d > -1e-13 {
			break
		}
	}
	if !wantDist {
		return s, 0
	}
	t := s - origin
	return s, nonNeg((((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0)
}

// projectBlock projects frame rows [lo, hi), writing scores[i] (and
// resid[i] when resid is non-nil) for each global row index i — the
// block-batched form of a project loop. Rows are seeded in blocks of
// projBlockRows through one shared grid-table GEMM (see projectBlockPacked)
// instead of per-row grid scans; the refinement tail is the per-row decision
// tree unchanged. Strategies without a grid seed (quintic) and strided
// frames fall back to the per-row loop, so the call is always safe.
func (e *engine) projectBlock(u *frame.Frame, lo, hi int, scores, resid []float64) {
	if e.kind == ProjectorQuintic || u.Stride() != u.Dim() {
		if resid == nil {
			for i := lo; i < hi; i++ {
				scores[i], _ = e.project(u.Row(i))
			}
			return
		}
		for i := lo; i < hi; i++ {
			scores[i], resid[i] = e.project(u.Row(i))
		}
		return
	}
	var rs []float64
	if resid != nil {
		rs = resid[lo:hi]
	}
	e.projectBlockPacked(u.Block(lo, hi), hi-lo, scores[lo:hi], rs)
}

// projectBlockPacked is the block-batched seeding kernel over nrows packed
// d-dimensional rows (data row r at [r·d, (r+1)·d)): per block of
// projBlockRows rows it forms the dot tile X_block·Fᵀ against the compiled
// grid table with the register-blocked GEMM, reduces each row's grid
// distances ‖x‖² − 2·x·f(t_g) + ‖f(t_g)‖² to the argmin node (the ‖x‖² term
// is constant per row and dropped), and finishes each row through the
// shared refinement tail. scores gets every row; resid may be nil when the
// caller only needs scores (serving), which also lets the cubic kernel skip
// its final distance evaluation. Rows must already be normalised.
//
// Tie-breaking note: the scan keeps the lowest node index under strict <,
// exactly like the per-row grid pass; the two paths can only disagree on
// the argmin when two nodes tie to within the rounding difference between
// the GEMM form and the collapsed-profile Horner form, which the ≤1e-12
// block parity contract absorbs.
func (e *engine) projectBlockPacked(data []float64, nrows int, scores, resid []float64) {
	d := e.comp.Dim()
	G := e.comp.GridCells() + 1
	grid := e.comp.GridTable()
	gnorm := e.comp.GridNormSq()
	profile := stageProfiling.Load()
	var st *stageCtxs
	if profile {
		st = e.stageLabels()
	}
	timing := e.stageNs != nil
	var tmark time.Time
	if timing {
		tmark = time.Now()
	}
	for b0 := 0; b0 < nrows; b0 += projBlockRows {
		bn := nrows - b0
		if bn > projBlockRows {
			bn = projBlockRows
		}
		block := data[b0*d : (b0+bn)*d]
		switch d {
		case 2, 3, 4:
			// Small ambient dimensions — the serving and fit reality — go
			// through fused micro-kernels: four rows share every grid-row
			// load and the argmin folds into the dot accumulation, so no
			// dot tile is ever stored and reloaded.
			if profile {
				st.set(st.seed)
			}
			switch d {
			case 2:
				seedBlockDim2(e.seeds, block, grid, gnorm, bn, G)
			case 3:
				seedBlockDim3(e.seeds, block, grid, gnorm, bn, G)
			default:
				seedBlockDim4(e.seeds, block, grid, gnorm, bn, G)
			}
			if timing {
				markStage(&e.stageNs.SeedNs, &tmark)
			}
		default:
			// Wider rows amortise the tile bookkeeping: the register-blocked
			// GEMM forms the dot tile, then a flat scan reduces each row.
			if profile {
				st.set(st.gemm)
			}
			if e.dots == nil {
				e.dots = make([]float64, projBlockRows*G)
			}
			mat.GemmABT(e.dots, G, block, d, grid, d, bn, G, d)
			if timing {
				markStage(&e.stageNs.GemmNs, &tmark)
			}
			if profile {
				st.set(st.seed)
			}
			for r := 0; r < bn; r++ {
				drow := e.dots[r*G : r*G+G]
				bestI := 0
				bestV := math.Inf(1)
				for g, dot := range drow {
					if v := gnorm[g] - 2*dot; v < bestV {
						bestV, bestI = v, g
					}
				}
				e.seeds[r] = bestI
			}
			if timing {
				markStage(&e.stageNs.SeedNs, &tmark)
			}
		}
		if profile {
			st.set(st.refine)
		}
		for r := 0; r < bn; r++ {
			i := b0 + r
			s, dist := e.projectRowSeeded(data[i*d:i*d+d], e.seeds[r], resid != nil)
			scores[i] = s
			if resid != nil {
				resid[i] = dist
			}
		}
		if timing {
			markStage(&e.stageNs.RefineNs, &tmark)
		}
	}
	if profile {
		st.set(st.base)
	}
}

// The seedBlockDim kernels reduce up to four rows at a time against the
// grid table: per node they load the curve point and its squared norm once,
// then each row contributes d multiply-adds and one compare. The row factor
// 2·u is hoisted so the per-node work is ‖f_g‖² − (2u)·f_g — the grid
// distance minus the row-constant ‖u‖², a monotone transform that preserves
// the argmin. Every row's reduction chain is independent of its position in
// the block, so stripe and block boundaries can never change a result.

func seedBlockDim3(seeds []int, rows, grid, gnorm []float64, bn, G int) {
	r := 0
	for ; r+4 <= bn; r += 4 {
		x := rows[r*3 : r*3+12]
		a0, a1, a2 := 2*x[0], 2*x[1], 2*x[2]
		b0, b1, b2 := 2*x[3], 2*x[4], 2*x[5]
		c0, c1, c2 := 2*x[6], 2*x[7], 2*x[8]
		d0, d1, d2 := 2*x[9], 2*x[10], 2*x[11]
		va, vb, vc, vd := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		ia, ib, ic, id := 0, 0, 0, 0
		for g := 0; g < G; g++ {
			f := grid[g*3 : g*3+3]
			f0, f1, f2 := f[0], f[1], f[2]
			n2 := gnorm[g]
			if v := n2 - (a0*f0 + a1*f1 + a2*f2); v < va {
				va, ia = v, g
			}
			if v := n2 - (b0*f0 + b1*f1 + b2*f2); v < vb {
				vb, ib = v, g
			}
			if v := n2 - (c0*f0 + c1*f1 + c2*f2); v < vc {
				vc, ic = v, g
			}
			if v := n2 - (d0*f0 + d1*f1 + d2*f2); v < vd {
				vd, id = v, g
			}
		}
		seeds[r], seeds[r+1], seeds[r+2], seeds[r+3] = ia, ib, ic, id
	}
	for ; r < bn; r++ {
		x := rows[r*3 : r*3+3]
		a0, a1, a2 := 2*x[0], 2*x[1], 2*x[2]
		best, bi := math.Inf(1), 0
		for g := 0; g < G; g++ {
			f := grid[g*3 : g*3+3]
			if v := gnorm[g] - (a0*f[0] + a1*f[1] + a2*f[2]); v < best {
				best, bi = v, g
			}
		}
		seeds[r] = bi
	}
}

func seedBlockDim2(seeds []int, rows, grid, gnorm []float64, bn, G int) {
	r := 0
	for ; r+4 <= bn; r += 4 {
		x := rows[r*2 : r*2+8]
		a0, a1 := 2*x[0], 2*x[1]
		b0, b1 := 2*x[2], 2*x[3]
		c0, c1 := 2*x[4], 2*x[5]
		d0, d1 := 2*x[6], 2*x[7]
		va, vb, vc, vd := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		ia, ib, ic, id := 0, 0, 0, 0
		for g := 0; g < G; g++ {
			f := grid[g*2 : g*2+2]
			f0, f1 := f[0], f[1]
			n2 := gnorm[g]
			if v := n2 - (a0*f0 + a1*f1); v < va {
				va, ia = v, g
			}
			if v := n2 - (b0*f0 + b1*f1); v < vb {
				vb, ib = v, g
			}
			if v := n2 - (c0*f0 + c1*f1); v < vc {
				vc, ic = v, g
			}
			if v := n2 - (d0*f0 + d1*f1); v < vd {
				vd, id = v, g
			}
		}
		seeds[r], seeds[r+1], seeds[r+2], seeds[r+3] = ia, ib, ic, id
	}
	for ; r < bn; r++ {
		x := rows[r*2 : r*2+2]
		a0, a1 := 2*x[0], 2*x[1]
		best, bi := math.Inf(1), 0
		for g := 0; g < G; g++ {
			f := grid[g*2 : g*2+2]
			if v := gnorm[g] - (a0*f[0] + a1*f[1]); v < best {
				best, bi = v, g
			}
		}
		seeds[r] = bi
	}
}

func seedBlockDim4(seeds []int, rows, grid, gnorm []float64, bn, G int) {
	r := 0
	for ; r+4 <= bn; r += 4 {
		x := rows[r*4 : r*4+16]
		a0, a1, a2, a3 := 2*x[0], 2*x[1], 2*x[2], 2*x[3]
		b0, b1, b2, b3 := 2*x[4], 2*x[5], 2*x[6], 2*x[7]
		c0, c1, c2, c3 := 2*x[8], 2*x[9], 2*x[10], 2*x[11]
		d0, d1, d2, d3 := 2*x[12], 2*x[13], 2*x[14], 2*x[15]
		va, vb, vc, vd := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		ia, ib, ic, id := 0, 0, 0, 0
		for g := 0; g < G; g++ {
			f := grid[g*4 : g*4+4]
			f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
			n2 := gnorm[g]
			if v := n2 - (a0*f0 + a1*f1 + a2*f2 + a3*f3); v < va {
				va, ia = v, g
			}
			if v := n2 - (b0*f0 + b1*f1 + b2*f2 + b3*f3); v < vb {
				vb, ib = v, g
			}
			if v := n2 - (c0*f0 + c1*f1 + c2*f2 + c3*f3); v < vc {
				vc, ic = v, g
			}
			if v := n2 - (d0*f0 + d1*f1 + d2*f2 + d3*f3); v < vd {
				vd, id = v, g
			}
		}
		seeds[r], seeds[r+1], seeds[r+2], seeds[r+3] = ia, ib, ic, id
	}
	for ; r < bn; r++ {
		x := rows[r*4 : r*4+4]
		a0, a1, a2, a3 := 2*x[0], 2*x[1], 2*x[2], 2*x[3]
		best, bi := math.Inf(1), 0
		for g := 0; g < G; g++ {
			f := grid[g*4 : g*4+4]
			if v := gnorm[g] - (a0*f[0] + a1*f[1] + a2*f[2] + a3*f[3]); v < best {
				best, bi = v, g
			}
		}
		seeds[r] = bi
	}
}

// projectRowSeeded collapses one normalised row's distance profile and runs
// the refinement tail from grid node bestI: the per-row decision tree with
// the grid scan replaced by the block seeder's answer. The seed's profile
// value is re-evaluated here with the scan's own arithmetic, which is what
// keeps the block path bit-identical to project whenever the argmin node
// agrees. wantDist false skips the cubic kernel's final distance evaluation
// (serving needs only the score).
func (e *engine) projectRowSeeded(u []float64, bestI int, wantDist bool) (float64, float64) {
	e.comp.DistPolyInto(e.dc, u)
	if e.kind == ProjectorNewton && len(e.dc) == 7 {
		c := e.dc
		t := float64(bestI)*(1/float64(e.cells)) - bezier.DistPolyOrigin
		t2 := t * t
		bestV := (c[0] + c[1]*t) + t2*((c[2]+c[3]*t)+t2*((c[4]+c[5]*t)+t2*c[6]))
		return cubicNewtonFromSeed(c[0], c[1], c[2], c[3], c[4], c[5], c[6], e.cells, bestI, bestV, wantDist)
	}
	e.fillDerivatives()
	s0 := float64(bestI) * (1 / float64(e.cells))
	bestV := bezier.EvalPoly(e.dc, s0-bezier.DistPolyOrigin)
	return e.refineSeed(bestI, bestV)
}

// markStage accumulates the time since *tmark into *acc and advances the
// mark — the fit-telemetry twin of the pprof stage-label toggles.
func markStage(acc *int64, tmark *time.Time) {
	now := time.Now()
	*acc += now.Sub(*tmark).Nanoseconds()
	*tmark = now
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
