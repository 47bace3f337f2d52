package core

import (
	"context"

	"rpcrank/internal/frame"
)

// Scorer is the compiled serving form of a fitted Model: the curve's
// distance profile precomputed into Horner-evaluated polynomial
// coefficients, plus reusable scratch, so scoring one observation performs
// zero heap allocations. Obtain one with Model.Compile.
//
// A Scorer is NOT safe for concurrent use — it owns scratch buffers. Hand
// each goroutine its own via Clone, which shares the immutable compiled
// coefficients and costs only the scratch.
//
// The projection contract. A score is the minimiser of the row's distance
// profile D(s) = ‖f(s) − u‖² over s ∈ [0,1] (Eq. 20/22), found from a seed
// grid of G cells, h = 1/G (see Model). Tests hold it to
// internal/oracle, an independent dense-scan projector that finds every
// local minimiser of D, its global minimum D* at s*, and M = max|D″| on
// [0,1]. On every row:
//
//   - (a) the attained distance D(s) is at most D* + M·h²/8 + 1e-12·(1+D*),
//     which a grid-seeded search guarantees;
//   - (b) s is within 1e-12 of s*, unless the row is a near tie: another
//     local minimum of D lies within M·h²/4 of D*, and which basin the seed
//     lands in is not decided by the profile;
//   - (c) Proposition 1 holds: if x strictly dominates y along α, then
//     s(x) ≥ s(y).
//
// Every model is served through the same grid-seeded Newton decision tree
// as the fit's score step, whatever projector a loaded rule names; a cubic
// curve's rows, served or fitted, all run the one cubicNewtonKernel over
// the curve's grid table (see engine). The contract is tested on
// componentwise-monotone curves — everything Fit can produce — and (c)
// rests on that monotonicity.
type Scorer struct {
	model *Model
	eng   *engine
	u     []float64

	// Cubic fast-path data: the curve's centre-shifted coefficients plus
	// the normaliser's offsets and precomputed inverse ranges, so one pass
	// over the row collapses the row-dependent part of its distance
	// profile (c0..c3) straight into registers; the curve's own part is in
	// the engine's grid table. Multiplying by the inverse range instead of
	// dividing perturbs the normalised coordinate by at most one ulp, far
	// inside the contract's 1e-12 score bound. Set only for cubic curves
	// (eng.grid non-nil).
	smono   []float64 // flat, stride 4 (from bezier.Compiled.ShiftedMono)
	snorm   []float64 // len 7 (from bezier.Compiled.ShiftedNormSq)
	mn, inv []float64
}

// clampMargin is L in the box [−L, 1+L] that Score clamps every normalised
// coordinate into. The distance profile carries ‖u‖² in its constant term,
// so far enough outside the training box the grid pass cannot tell its
// nodes apart (the top journals row shifted 1e15 along α scored 0). The
// clamp is monotone, so Proposition 1 survives it; 2^10 is the largest
// power of two at which rows at the bound met the projection contract
// (README, "Performance").
const clampMargin = 1 << 10

// ctxPollRows is how many rows ScoreFrameRangeCtx scores between polls of
// its context.
const ctxPollRows = 64

// Compile builds the zero-allocation scorer for m, whose scores meet the
// projection contract stated on Scorer, on m's seed grid: 32 cells for a
// fitted model, the document's grid_cells for a loaded one, and 32 for a
// hand-assembled one. It costs O(d·k²) plus, for a cubic curve, one pass
// over the grid to build its table (O(cells)), so per-request compilation
// is fine at the default grid; per-row compilation defeats the point.
// Clone shares the compiled curve and the table. The Scorer references
// m's curve and normaliser; mutating the model afterwards (refitting in
// place) invalidates it.
func (m *Model) Compile() *Scorer {
	cells := m.gridCells
	if cells == 0 {
		// Hand-assembled models (tests, direct struct literals) never went
		// through Fit or Load; give them the standard grid.
		cells = defaultGridCells
	}
	sc := &Scorer{
		model: m,
		eng:   newEngine(m.Curve, cells),
		u:     make([]float64, m.Curve.Dim()),
	}
	sc.initFastPath()
	return sc
}

func (sc *Scorer) initFastPath() {
	e := sc.eng
	if e.grid == nil {
		return
	}
	d := e.comp.Dim()
	sc.smono = e.comp.ShiftedMono()
	sc.snorm = e.comp.ShiftedNormSq()
	sc.mn = sc.model.Norm.Min
	sc.inv = make([]float64, d)
	for j := 0; j < d; j++ {
		sc.inv[j] = 1 / (sc.model.Norm.Max[j] - sc.model.Norm.Min[j])
	}
}

// Clone returns an independent Scorer for use by another goroutine,
// sharing the compiled coefficients and the cubic grid table.
func (sc *Scorer) Clone() *Scorer {
	c := &Scorer{
		model: sc.model,
		eng:   sc.eng.clone(),
		u:     make([]float64, len(sc.u)),
	}
	c.initFastPath()
	return c
}

// Dim returns the attribute dimension rows must have.
func (sc *Scorer) Dim() int { return len(sc.u) }

// Model returns the model this scorer was compiled from.
func (sc *Scorer) Model() *Model { return sc.model }

// Score projects one raw observation, each normalised coordinate clamped
// into [−clampMargin, 1+clampMargin], and returns its score in [0,1]. It
// allocates nothing.
func (sc *Scorer) Score(x []float64) float64 {
	if sc.eng.grid != nil && len(x) == len(sc.mn) {
		// Normalise and collapse the row's part of the distance profile
		// in one register pass; the cubic kernel needs nothing else. Rows
		// of the wrong dimension fall through to ApplyInto's canonical
		// panic.
		c0, c1, c2, c3 := sc.snorm[0], sc.snorm[1], sc.snorm[2], sc.snorm[3]
		var x2 float64
		for j, v := range x {
			u := min(max((v-sc.mn[j])*sc.inv[j], -clampMargin), 1+clampMargin)
			x2 += u * u
			t := 2 * u
			row := sc.smono[j*4 : j*4+4]
			c0 -= t * row[0]
			c1 -= t * row[1]
			c2 -= t * row[2]
			c3 -= t * row[3]
		}
		s, _ := cubicNewtonKernel(sc.eng.grid, c0+x2, c1, c2, c3, false)
		return s
	}
	sc.model.Norm.ApplyInto(sc.u, x)
	for j, u := range sc.u {
		sc.u[j] = min(max(u, -clampMargin), 1+clampMargin)
	}
	s, _ := sc.eng.project(sc.u)
	return s
}

// ScoreInto scores every row into dst, reusing dst's backing array when it
// has the capacity (allocating a fresh slice otherwise), and returns the
// slice of len(rows) scores. Beyond the possible dst growth it allocates
// nothing, and each score is Score's, so it meets the projection contract
// stated on Scorer.
func (sc *Scorer) ScoreInto(dst []float64, rows [][]float64) []float64 {
	if cap(dst) >= len(rows) {
		dst = dst[:len(rows)]
	} else {
		dst = make([]float64, len(rows))
	}
	for i, x := range rows {
		dst[i] = sc.Score(x)
	}
	return dst
}

// ScoreFrame scores every row of the frame into dst under the same reuse
// and projection contract as ScoreInto: dst's backing array is kept when it
// has the capacity, nothing else is allocated, and every score is Score's. Rows are zero-copy strided views into the
// frame's contiguous backing array, so large batches stream through the
// cache instead of chasing row pointers.
func (sc *Scorer) ScoreFrame(dst []float64, f *frame.Frame) []float64 {
	if cap(dst) >= f.N() {
		dst = dst[:f.N()]
	} else {
		dst = make([]float64, f.N())
	}
	sc.ScoreFrameRange(dst, f, 0, f.N())
	return dst
}

// ScoreFrameRange scores frame rows [lo, hi) into dst[lo:hi]. It is the
// sharding primitive behind worker pools: several goroutines, each holding
// its own Scorer, write disjoint ranges of one shared dst over one shared
// read-only frame with no synchronisation. Every row goes through Score, so
// the batch and per-row scores are bit-identical.
func (sc *Scorer) ScoreFrameRange(dst []float64, f *frame.Frame, lo, hi int) {
	sc.ScoreFrameRangeCtx(nil, dst, f, lo, hi)
}

// ScoreFrameRangeCtx is ScoreFrameRange with cooperative cancellation: ctx
// (when non-nil) is polled before every ctxPollRows rows, and the call
// returns the number of rows actually scored — hi-lo on completion, less
// when the context was done first, in which case dst beyond lo+n is
// untouched. Cancellation lands between rows, so a cancelled scorer is left
// reusable and can be released back to its model's pool.
func (sc *Scorer) ScoreFrameRangeCtx(ctx context.Context, dst []float64, f *frame.Frame, lo, hi int) int {
	for b := lo; b < hi; b += ctxPollRows {
		if ctx != nil && ctx.Err() != nil {
			return b - lo
		}
		end := min(b+ctxPollRows, hi)
		for i := b; i < end; i++ {
			dst[i] = sc.Score(f.Row(i))
		}
	}
	return hi - lo
}
