package core

import (
	"context"

	"rpcrank/internal/frame"
)

// Scorer is the compiled serving form of a fitted Model: the curve's
// distance profile precomputed into Horner-evaluated polynomial
// coefficients, so scoring one observation performs zero heap
// allocations. Obtain one with Model.Compile, or share the model's own
// with Model.AcquireScorer.
//
// A Scorer is immutable once compiled and safe for concurrent use: a
// row's working state lives on the scoring goroutine's stack, so any
// number of goroutines may score through one Scorer at once.
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

	// The curve's centre-shifted coefficients and the normaliser's bounds,
	// so one pass over the row normalises it, clamps it and collapses the
	// row-dependent part of its distance profile. A cubic collapses c0..c3
	// straight into registers (the curve's own part is in the engine's grid
	// table) and multiplies by the precomputed inverse range instead of
	// dividing, which perturbs the normalised coordinate by at most one ulp,
	// far inside the contract's 1e-12 score bound. Other degrees divide by
	// the range, as Normalizer.ApplyInto does.
	smono  []float64 // flat, stride degree+1 (bezier.Compiled.ShiftedMono)
	snorm  []float64 // len 2·degree+1 (bezier.Compiled.ShiftedNormSq)
	mn, mx []float64
	inv    []float64 // cubic only: 1/(mx−mn)
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
// is fine at the default grid; per-row compilation defeats the point, and
// Model.AcquireScorer compiles once per model. The Scorer references m's
// curve and normaliser; mutating the model afterwards (refitting in place)
// invalidates it.
func (m *Model) Compile() *Scorer {
	cells := m.gridCells
	if cells == 0 {
		// Hand-assembled models (tests, direct struct literals) never went
		// through Fit or Load; give them the standard grid.
		cells = defaultGridCells
	}
	e := newEngine(m.Curve, cells)
	sc := &Scorer{
		model: m,
		eng:   e,
		smono: e.comp.ShiftedMono(),
		snorm: e.comp.ShiftedNormSq(),
		mn:    m.Norm.Min,
		mx:    m.Norm.Max,
	}
	if e.grid != nil {
		sc.inv = make([]float64, len(sc.mn))
		for j := range sc.inv {
			sc.inv[j] = 1 / (sc.mx[j] - sc.mn[j])
		}
	}
	return sc
}

// Dim returns the attribute dimension rows must have.
func (sc *Scorer) Dim() int { return sc.eng.comp.Dim() }

// Model returns the model this scorer was compiled from.
func (sc *Scorer) Model() *Model { return sc.model }

// Score projects one raw observation, each normalised coordinate clamped
// into [−clampMargin, 1+clampMargin], and returns its score in [0,1]. It
// allocates nothing.
func (sc *Scorer) Score(x []float64) float64 {
	if len(x) != len(sc.mn) {
		sc.model.Norm.CheckRow(x) // the normaliser's dimension panic
	}
	if sc.eng.grid != nil {
		// Normalise and collapse the row's part of the distance profile
		// in one register pass; the cubic kernel needs nothing else.
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
	// Other degrees: the same pass into a stack-held profile, with the
	// arithmetic of Normalizer.ApplyInto and bezier.Compiled.DistPolyInto,
	// so the profile is bit-equal to theirs.
	var p profile
	p.n = len(sc.snorm)
	dc := p.dc[:p.n]
	copy(dc, sc.snorm)
	k := sc.eng.comp.Degree() + 1
	var x2 float64
	for j, v := range x {
		u := min(max((v-sc.mn[j])/(sc.mx[j]-sc.mn[j]), -clampMargin), 1+clampMargin)
		x2 += u * u
		t := 2 * u
		for c, mc := range sc.smono[j*k : (j+1)*k] {
			dc[c] -= t * mc
		}
	}
	dc[0] += x2
	p.derive()
	s, _ := sc.eng.projectSeeded(&p)
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
	sc.ScoreFrameRangeCtx(nil, dst, f, 0, f.N())
	return dst
}

// ScoreFrameRange scores frame rows [lo, hi) into dst[lo:hi]. It is the
// sharding primitive behind worker pools: several goroutines, sharing one
// Scorer, write disjoint ranges of one shared dst over one shared
// read-only frame with no synchronisation. Every row goes through Score, so
// the batch and per-row scores are bit-identical.
func (sc *Scorer) ScoreFrameRange(dst []float64, f *frame.Frame, lo, hi int) {
	sc.ScoreFrameRangeCtx(nil, dst, f, lo, hi)
}

// ScoreFrameRangeCtx is ScoreFrameRange with cooperative cancellation: ctx
// (when non-nil) is polled before every ctxPollRows rows, and the call
// returns the number of rows actually scored — hi-lo on completion, less
// when the context was done first, in which case dst beyond lo+n is
// untouched. Cancellation lands between rows.
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
