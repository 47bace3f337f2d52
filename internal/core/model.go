// Package core implements the paper's primary contribution: the Ranking
// Principal Curve (RPC) model of §4–5. An RPC is a degree-k Bézier curve
// (cubic by default, Eq. 15) whose end points are pinned to opposite corners
// of the unit hypercube by the direction vector α and whose inner control
// points are confined to the interior of the hypercube, which makes every
// coordinate of the curve strictly monotone (Proposition 1) and hence the
// induced score map order-preserving. Fitting follows Algorithm 1:
// alternating minimisation of the latent scores (Eq. 22) and the control
// points (Eq. 26, solved exactly under the box; the paper's Eq. 27–28
// Richardson step remains as an ablation).
//
// One departure from Algorithm 1: the paper solves the score step by Golden
// Section Search, and this package does not. Each score is a grid seed
// followed by safeguarded Newton iteration on the derivative of the
// distance profile, to machine precision in a handful of polynomial
// passes. A Golden Section (or Brent) search of the same grid bracket would
// only hand that Newton iteration a different start to the same root: fits
// run both ways took identical iterations, converged alike and ranked
// alike, with scores within ~1e-14. So neither search is kept. Nor is the
// exact route the paper cites, Jenkins–Traub roots of the degree-5
// orthogonality condition (f(s)−x)·f′(s) = 0 of a cubic: it gave the same
// scores to within 4.4e-16 at over 20 times Newton's cost per row, with
// allocations, and internal/oracle is the exact reference the tests hold
// every projection to. Grid-seeded Newton is the only projector, fitted or
// served.
//
// A second departure: Algorithm 1 iterates the two steps plainly, and
// this package accelerates the iteration with Anderson mixing and a J
// safeguard (see Fit), because the plain iteration crawls along nearly
// flat directions of J and ran out of iterations on the journals data.
package core

import (
	"errors"
	"fmt"
	"sync"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
	"rpcrank/internal/stats"
)

// Updater selects the control-point update rule for Eq. 21.
type Updater int

const (
	// UpdaterPseudoInverse takes the exact minimiser of Eq. 26 under the
	// box [ε, 1−ε] (ε = 1e-3) the interior control points live in: one
	// small box-constrained quadratic per coordinate, solved exactly, so
	// the step never raises the fixed-score objective. The outer iteration
	// is Anderson-accelerated with a J safeguard. Default.
	UpdaterPseudoInverse Updater = iota
	// UpdaterRichardson is the preconditioned Richardson iteration of
	// Eq. 27–28 that the paper adopts to cope with the ill-conditioning of
	// (MZ)(MZ)ᵀ, run unaccelerated. Kept for the updater ablation (A2).
	UpdaterRichardson
)

// String implements fmt.Stringer.
func (u Updater) String() string {
	switch u {
	case UpdaterRichardson:
		return "richardson"
	case UpdaterPseudoInverse:
		return "pseudoinverse"
	}
	return "unknown"
}

// Options configures Fit. The zero value is not usable: Alpha is required.
// Every other field has a sensible default applied by withDefaults. Options
// is an input of the fit only: the Model it produces keeps none of it, and
// none of it changes what the fit records (Model.FitDiag always carries the
// per-iteration trace).
type Options struct {
	// Alpha is the direction vector of Eq. 3: one ±1 entry per attribute
	// (+1 benefit, −1 cost). Required.
	Alpha order.Direction

	// Degree of the Bézier curve. Default 3, the degree the paper argues is
	// the right capacity/overfitting trade-off (§4.2). Values 2–6 are
	// accepted for the degree ablation.
	Degree int

	// MaxIter bounds the outer alternating-minimisation loop. Default 200.
	MaxIter int

	// Tol is ξ of Algorithm 1: stop when the objective decreases by less
	// than this between iterations. Default 1e-8.
	Tol float64

	// Updater selects the control-point update. Default
	// UpdaterPseudoInverse.
	Updater Updater

	// Seed drives the deterministic jitter of the control-point
	// initialisation. Default 1.
	Seed int64

	// NoNormalize skips the min–max normalisation of Eq. 29 and treats the
	// input as already lying in [0,1]^d. Use when the unit box carries
	// meaning of its own (the Table 1 / Fig. 6 toy data); Fit rejects rows
	// outside [0,1] in this mode.
	NoNormalize bool

	// Restarts > 1 runs the fit from multiple initialisations — the
	// jittered diagonal plus Restarts−1 draws of random data rows as
	// initial control points (the paper's sample-based init) — and keeps
	// the solution with the lowest objective. The alternating minimisation
	// only finds local minima (Eq. 21–22), so restarts materially improve
	// small-n fits. Default 1.
	Restarts int

	// Workers parallelises the projection step (Eq. 22) across goroutines.
	// Projections of distinct observations are independent, so the result
	// is bit-identical to the serial fit. 0 or 1 = serial; −1 = one worker
	// per CPU. When Restarts > 1 the restarts also run concurrently, at
	// most Workers wide (so 0 or 1 keeps the whole fit serial), splitting
	// the projection workers between them; the result does not depend on
	// either degree of parallelism.
	Workers int

	// restartIndex and restartTotal thread the multi-start bookkeeping
	// into each restart's fitPrepared run for its diagnostics; initInner,
	// when non-nil, holds that restart's initial interior control points
	// (Degree−1 rows of dimension d, in normalised space, clamped into the
	// box before use) in place of the jittered diagonal. fitRestarts sets
	// all three, never callers.
	restartIndex int
	restartTotal int
	initInner    [][]float64
}

func (o Options) withDefaults() Options {
	if o.Degree == 0 {
		o.Degree = 3
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// minDegree and maxDegree bound the curve degree. Shared by
// Options.validate and Load: Load accepts a rule exactly when Fit could
// have produced its degree.
const (
	minDegree = 2
	maxDegree = 6
)

// clampEps is ε of Prop. 1's interior box: Fit holds every inner control
// point inside [ε, 1−ε]^d, so the Hu et al. monotonicity condition holds
// strictly.
const clampEps = 1e-3

// defaultGridCells is the seed grid of the projector: every fit projects
// on it, and so does every model that names no grid of its own.
// maxGridCells bounds the grid a loaded rule may name, since a huge grid
// is a CPU bomb per scored row.
const (
	defaultGridCells = 32
	maxGridCells     = 1 << 16
)

func (o Options) validate(nRows, dim int) error {
	if len(o.Alpha) == 0 {
		return errors.New("core: Options.Alpha is required")
	}
	if err := o.Alpha.Validate(); err != nil {
		return err
	}
	if o.Alpha.Dim() != dim {
		return fmt.Errorf("core: alpha has %d attributes but data has %d", o.Alpha.Dim(), dim)
	}
	if nRows < 2 {
		return fmt.Errorf("core: need at least 2 observations, got %d", nRows)
	}
	if o.Degree < minDegree || o.Degree > maxDegree {
		return fmt.Errorf("core: degree %d out of supported range [%d,%d]", o.Degree, minDegree, maxDegree)
	}
	if o.MaxIter < 1 {
		return fmt.Errorf("core: MaxIter must be positive, got %d", o.MaxIter)
	}
	return nil
}

// Model is a fitted RPC. Scores live in [0,1] with 1 the "best" corner
// (1+α)/2 of the hypercube and 0 the "worst". The ranking rule is the
// curve, the direction and the normaliser, plus the seed grid its scores
// are projected on: 32 cells for a fitted model, the rule document's value
// for a loaded one. A model keeps nothing else of the Options it was
// fitted with. What the fit did is recorded once, in FitDiag: its trace
// holds J and whether the fit adopted the iterate, for every iteration.
type Model struct {
	// Curve is the fitted Bézier curve in normalised [0,1]^d space.
	Curve *bezier.Curve
	// Alpha is the direction vector the model was fitted with.
	Alpha order.Direction
	// Norm maps between the original data space and [0,1]^d.
	Norm *stats.Normalizer
	// Scores holds the training scores, parallel to the input rows.
	Scores []float64
	// ResidualsSq holds the squared orthogonal reconstruction error per row.
	ResidualsSq []float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// Converged reports whether the |ΔJ| < ξ criterion fired before
	// MaxIter.
	Converged bool
	// FitDiag is the telemetry of the fit run that produced this model
	// (nil for models reconstructed by Load — the rule document carries
	// no training history). Not part of the saved rule; the registry
	// persists it in the model's metadata envelope instead.
	FitDiag *FitDiagnostics

	gridCells int          // seed grid of the projector; 0 means defaultGridCells
	data      *frame.Frame // normalised training rows, retained for diagnostics

	// compiled is the model's one scorer, compiled on first use by
	// AcquireScorer and shared by every caller.
	compileOnce sync.Once
	compiled    *Scorer
}

// AcquireScorer returns the model's scorer, compiling it on the first
// call. Every call returns the same immutable Scorer, which is safe for
// concurrent use, so the curve and its cubic grid table are built once
// per model; after the first call the lookup is allocation-free.
func (m *Model) AcquireScorer() *Scorer {
	m.compileOnce.Do(func() { m.compiled = m.Compile() })
	return m.compiled
}

// ReleaseScorer does nothing: the scorer AcquireScorer returns is shared
// and needs no release. It is kept for callers written against the
// borrow-and-release form.
func (m *Model) ReleaseScorer(*Scorer) {}

// Dim returns the attribute dimension.
func (m *Model) Dim() int { return m.Alpha.Dim() }

// ExplainedVariance returns 1 − Σresidual²/total variance in normalised
// space, the quality measure of §6.2.1.
func (m *Model) ExplainedVariance() float64 {
	return stats.ExplainedVarianceFrame(m.data, m.ResidualsSq)
}

// MSE returns the mean squared orthogonal residual in normalised space.
func (m *Model) MSE() float64 { return stats.MSE(m.ResidualsSq) }

// ControlPoints returns the control points in normalised space;
// row r is point p_r.
func (m *Model) ControlPoints() [][]float64 {
	out := make([][]float64, len(m.Curve.Points))
	for i, p := range m.Curve.Points {
		out[i] = append([]float64{}, p...)
	}
	return out
}

// ControlPointsOriginal maps the control points back to the original data
// space, which is how Table 2 reports them (its bottom rows).
func (m *Model) ControlPointsOriginal() [][]float64 {
	out := make([][]float64, len(m.Curve.Points))
	for i, p := range m.Curve.Points {
		out[i] = m.Norm.Invert(p)
	}
	return out
}

// ServingCopy returns a copy of the model holding only what scoring new
// observations needs — the curve, direction, normaliser, and projection
// grid. The fit's record (Scores, ResidualsSq, Iterations, Converged,
// FitDiag and the retained data) is dropped, matching what Load
// reconstructs from disk.
// Long-lived caches should hold this instead of the fitted model, whose
// diagnostics are sized by the training set.
func (m *Model) ServingCopy() *Model {
	return &Model{
		Curve:     m.Curve,
		Alpha:     m.Alpha,
		Norm:      m.Norm,
		gridCells: m.gridCells,
	}
}

// StrictlyMonotone reports whether every coordinate of the curve is
// strictly monotone in its direction α, the condition of Proposition 1 that
// makes the scores order-preserving. It is bezier.StrictlyMonotone's exact
// Bernstein certificate, the same at every degree; a derivative that
// touches zero at an interior point reports false.
func (m *Model) StrictlyMonotone() bool { return bezier.StrictlyMonotone(m.Curve, m.Alpha) }
