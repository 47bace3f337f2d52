package core

import (
	"context"

	"rpcrank/internal/frame"
)

// Scorer is the compiled serving form of a fitted Model: the curve's
// distance profile precomputed into Horner-evaluated polynomial
// coefficients, plus reusable scratch, so scoring one observation performs
// zero heap allocations (Newton-projector models; the quintic strategy's
// exact root solver allocates). Obtain one with Model.Compile.
//
// A Scorer is NOT safe for concurrent use — it owns scratch buffers. Hand
// each goroutine its own via Clone, which shares the immutable compiled
// coefficients and costs only the scratch.
//
// The projection contract. A score is the minimiser of the row's distance
// profile D(s) = ‖f(s) − u‖² over s ∈ [0,1] (Eq. 20/22), found from a seed
// grid of GridCells cells, h = 1/GridCells. Tests hold it to
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
// A model is served by the projector that fitted it: ProjectorNewton
// models through the same grid-seeded Newton decision tree as the fit's
// score step, quintic models through their exact solver. The contract is
// tested on componentwise-monotone curves — everything Fit can produce —
// and (c) rests on that monotonicity.
type Scorer struct {
	model *Model
	eng   *engine
	u     []float64

	// Cubic fast-path data: the curve's centre-shifted coefficients plus
	// the normaliser's offsets and precomputed inverse ranges, so one pass
	// over the row collapses its distance profile straight into registers.
	// Multiplying by the inverse range instead of dividing perturbs the
	// normalised coordinate by at most one ulp, far inside the contract's
	// 1e-12 score bound.
	fastCubic bool
	smono     []float64 // flat, stride 4 (from bezier.Compiled.ShiftedMono)
	snorm     []float64 // len 7 (from bezier.Compiled.ShiftedNormSq)
	mn, inv   []float64
}

// ctxPollRows is how many rows ScoreFrameRangeCtx scores between polls of
// its context.
const ctxPollRows = 64

// Compile builds the zero-allocation scorer for m, whose scores meet the
// projection contract stated on Scorer. It is cheap — O(d·k²) — so
// per-request compilation is fine; per-row compilation defeats the point. The Scorer references m's curve and normaliser; mutating the
// model afterwards (refitting in place) invalidates it.
func (m *Model) Compile() *Scorer {
	opts := m.opts
	if opts.GridCells == 0 {
		// Hand-assembled models (tests, direct struct literals) never went
		// through Fit or Load; give them the standard projector settings.
		opts = opts.withDefaults()
	}
	sc := &Scorer{
		model: m,
		eng:   newEngine(m.Curve, opts),
		u:     make([]float64, m.Curve.Dim()),
	}
	sc.initFastPath()
	return sc
}

func (sc *Scorer) initFastPath() {
	e := sc.eng
	if e.quintic || e.comp.Degree() != 3 {
		return
	}
	d := e.comp.Dim()
	sc.fastCubic = true
	sc.smono = e.comp.ShiftedMono()
	sc.snorm = e.comp.ShiftedNormSq()
	sc.mn = sc.model.Norm.Min
	sc.inv = make([]float64, d)
	for j := 0; j < d; j++ {
		sc.inv[j] = 1 / (sc.model.Norm.Max[j] - sc.model.Norm.Min[j])
	}
}

// Clone returns an independent Scorer for use by another goroutine,
// sharing the compiled coefficients.
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

// Score projects one raw observation and returns its score in [0,1].
// It allocates nothing (see the type comment for the quintic exception).
func (sc *Scorer) Score(x []float64) float64 {
	if sc.fastCubic && len(x) == len(sc.mn) {
		// Normalise and collapse the distance profile in one register
		// pass; the cubic kernel needs nothing else. Rows of the wrong
		// dimension fall through to ApplyInto's canonical panic.
		c0, c1, c2, c3 := sc.snorm[0], sc.snorm[1], sc.snorm[2], sc.snorm[3]
		c4, c5, c6 := sc.snorm[4], sc.snorm[5], sc.snorm[6]
		var x2 float64
		for j, v := range x {
			u := (v - sc.mn[j]) * sc.inv[j]
			x2 += u * u
			t := 2 * u
			row := sc.smono[j*4 : j*4+4]
			c0 -= t * row[0]
			c1 -= t * row[1]
			c2 -= t * row[2]
			c3 -= t * row[3]
		}
		c0 += x2
		s, _ := cubicNewtonKernel(c0, c1, c2, c3, c4, c5, c6, sc.eng.cells, false)
		return s
	}
	sc.model.Norm.ApplyInto(sc.u, x)
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
