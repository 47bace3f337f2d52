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
// alike, with scores within ~1e-14. So neither search is kept. The exact
// quintic root solver (the Jenkins–Traub route the paper cites) is the one
// alternative projector.
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

// Projector selects how the per-point latent score sᵢ (Eq. 20) is computed.
type Projector int

const (
	// ProjectorNewton seeds with a coarse grid and refines by safeguarded
	// Newton iteration on the derivative of the squared-distance profile.
	// Fit and the compiled scorer of Model.Compile share it, so a fitted
	// model is served by the same decision tree that fitted it. Any degree.
	// Default (the zero value).
	ProjectorNewton Projector = iota
	// ProjectorQuintic solves the orthogonality condition (f(s)−x)·f′(s)=0
	// exactly as a quintic polynomial (the Jenkins–Traub route the paper
	// cites). Only valid for cubic curves.
	ProjectorQuintic
)

// String implements fmt.Stringer.
func (p Projector) String() string {
	switch p {
	case ProjectorNewton:
		return "newton"
	case ProjectorQuintic:
		return "quintic"
	}
	return "unknown"
}

// Updater selects the control-point update rule for Eq. 21.
type Updater int

const (
	// UpdaterPseudoInverse takes the exact minimiser of Eq. 26 under the
	// box [ClampEps, 1−ClampEps] the interior control points live in: one
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
// Every other field has a sensible default applied by withDefaults.
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

	// GridCells is the coarse-grid resolution used to seed the projector.
	// Default 32.
	GridCells int

	// Projector selects the score solver. Default ProjectorNewton.
	Projector Projector

	// Updater selects the control-point update. Default
	// UpdaterPseudoInverse.
	Updater Updater

	// ClampEps keeps inner control points inside [ClampEps, 1−ClampEps]
	// so the Hu et al. monotonicity condition holds strictly. Default 1e-3.
	ClampEps float64

	// Seed drives the deterministic jitter of the control-point
	// initialisation. Default 1.
	Seed int64

	// KeepTrajectory records the objective of every adopted iterate in
	// Model.Objective (always records at least the final value).
	KeepTrajectory bool

	// NoNormalize skips the min–max normalisation of Eq. 29 and treats the
	// input as already lying in [0,1]^d. Use when the unit box carries
	// meaning of its own (the Table 1 / Fig. 6 toy data); Fit rejects rows
	// outside [0,1] in this mode.
	NoNormalize bool

	// InitInner, when non-nil, supplies the initial interior control
	// points (Degree−1 rows of dimension d, in normalised space) instead of
	// the jittered-diagonal default. Algorithm 1 step 2 initialises from
	// randomly selected samples; passing data rows here reproduces that.
	// Values are clamped into the open box before use.
	InitInner [][]float64

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

	// NoWarmStart disables the warm-started projection of the fit loop.
	// WarmStart is the default: from the second Algorithm-1 iteration on,
	// each row's projection seeds safeguarded Newton from the row's score
	// in the previous iteration, falling back to the full grid scan for any
	// row whose warm basin fails validation (see engine.projectWarm). The
	// warm and cold fits agree to ~1e-9 in the final scores with the final
	// objective no worse (pinned by test); set NoWarmStart to force the
	// cold grid-seeded projection in every iteration. Serving (Scorer,
	// Model.Score) always projects cold — there is no previous iterate to
	// warm-start from — so this option never affects scoring.
	NoWarmStart bool

	// restartIndex and restartTotal thread the multi-start bookkeeping
	// into each restart's fitPrepared run for its diagnostics; they are
	// set by fitMultiStartN, never by callers.
	restartIndex int
	restartTotal int
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
	if o.GridCells == 0 {
		o.GridCells = 32
	}
	if o.ClampEps == 0 {
		o.ClampEps = 1e-3
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

// MaxGridCells bounds the projection grid. Shared by Options.validate and
// Load so a fitted model always round-trips through Save/Load: anything
// Fit accepts, Load accepts.
const MaxGridCells = 1 << 16

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
	if o.Projector == ProjectorQuintic && o.Degree != 3 {
		return fmt.Errorf("core: quintic projector requires degree 3, got %d", o.Degree)
	}
	if o.MaxIter < 1 {
		return fmt.Errorf("core: MaxIter must be positive, got %d", o.MaxIter)
	}
	if o.GridCells < 2 || o.GridCells > MaxGridCells {
		return fmt.Errorf("core: GridCells %d out of [2, %d]", o.GridCells, MaxGridCells)
	}
	if o.ClampEps <= 0 || o.ClampEps >= 0.5 {
		return fmt.Errorf("core: ClampEps %v out of (0, 0.5)", o.ClampEps)
	}
	return nil
}

// Model is a fitted RPC. Scores live in [0,1] with 1 the "best" corner
// (1+α)/2 of the hypercube and 0 the "worst".
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
	// Objective is the recorded J trajectory: with KeepTrajectory, J of
	// every iterate the fit adopted, so it never rises; otherwise only the
	// final value.
	Objective []float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// Converged reports whether the |ΔJ| < ξ criterion fired before
	// MaxIter.
	Converged bool
	// ConditionNumbers records cond((MZ)(MZ)ᵀ) at each control-point step,
	// for either updater, when KeepTrajectory is set (used by the A2
	// ablation). The last iteration takes no step, and neither does an
	// iteration whose extrapolated curve the safeguard rejects, so there
	// are at most Iterations − 1 entries.
	ConditionNumbers []float64
	// FitDiag is the telemetry of the fit run that produced this model
	// (nil for models reconstructed by Load — the rule document carries
	// no training history). Not part of the saved rule; the registry
	// persists it in the model's metadata envelope instead.
	FitDiag *FitDiagnostics

	opts Options
	data *frame.Frame // normalised training rows, retained for diagnostics

	// scorers recycles compiled scorers for Model.Score, which must stay
	// safe for concurrent use while a Scorer (owning scratch) is not.
	scorers sync.Pool
}

// AcquireScorer borrows a compiled scorer from the model's internal pool,
// compiling one when the pool is empty. Callers that score a bounded chunk
// of work — a batch shard, a request — should Acquire, score, and
// ReleaseScorer instead of calling Compile per batch: after warm-up the
// borrow is allocation-free. The scorer is owned by the caller until
// released and is not safe for concurrent use.
func (m *Model) AcquireScorer() *Scorer {
	sc, _ := m.scorers.Get().(*Scorer)
	if sc == nil {
		sc = m.Compile()
	}
	return sc
}

// ReleaseScorer returns a scorer obtained from AcquireScorer to the pool.
// The scorer must not be used after release.
func (m *Model) ReleaseScorer(sc *Scorer) { m.scorers.Put(sc) }

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
// observations needs — the curve, direction, normaliser, and projector
// options. Training-time diagnostics (Scores, ResidualsSq, Objective, the
// retained data) are dropped, matching what Load reconstructs from disk.
// Long-lived caches should hold this instead of the fitted model, whose
// diagnostics are sized by the training set.
func (m *Model) ServingCopy() *Model {
	return &Model{
		Curve: m.Curve,
		Alpha: m.Alpha,
		Norm:  m.Norm,
		opts:  m.opts,
	}
}

// StrictlyMonotone reports whether the fitted curve passes the exact
// componentwise monotonicity test of Proposition 1 (always true for the
// cubic fit with clamped control points; exposed so callers can assert it).
func (m *Model) StrictlyMonotone() bool {
	if m.Curve.Degree() != 3 {
		return sampledMonotone(m.Curve, m.Alpha)
	}
	return bezier.StrictlyMonotone(m.Curve, m.Alpha)
}

// sampledMonotone is the fallback monotonicity check for non-cubic degrees
// (where no closed form is implemented): dense sampling of each coordinate.
func sampledMonotone(c *bezier.Curve, alpha order.Direction) bool {
	const cells = 512
	prev := c.Eval(0)
	for i := 1; i <= cells; i++ {
		cur := c.Eval(float64(i) / cells)
		for j, s := range alpha {
			if s*(cur[j]-prev[j]) < -1e-12 {
				return false
			}
		}
		prev = cur
	}
	return true
}
