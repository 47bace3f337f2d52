package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rpcrank/internal/order"
)

// Diagnostics summarises a fitted model for human inspection: convergence,
// fit quality, residual distribution, monotonicity, and the empirical
// order-preservation statistics on the training data.
type Diagnostics struct {
	// N and Dim describe the training data.
	N, Dim int
	// Degree of the fitted curve.
	Degree int
	// Iterations and Converged echo the fit loop outcome.
	Iterations int
	Converged  bool
	// ExplainedVariance and MSE in normalised space.
	ExplainedVariance, MSE float64
	// ResidualQuantiles holds the {min, 25%, median, 75%, max} of the
	// per-row orthogonal residual (square root of the squared residual).
	ResidualQuantiles [5]float64
	// StrictlyMonotone is Model.StrictlyMonotone: the exact Bernstein
	// certificate of Proposition 1 on the curve, at any degree.
	StrictlyMonotone bool
	// DominanceViolations and ComparablePairs measure empirical
	// order-preservation on the training rows (must be 0 violations).
	DominanceViolations, ComparablePairs int
	// FrontConsistency is the Pareto stratification agreement in [0,1].
	FrontConsistency float64
	// ScoreRange is the [min, max] of training scores.
	ScoreRange [2]float64
}

// Diagnose computes the summary. It is O(n²) in the training size because
// of the pairwise dominance scan; for very large n prefer the individual
// accessors.
func (m *Model) Diagnose() Diagnostics {
	d := Diagnostics{
		N:                 m.data.N(),
		Dim:               m.Dim(),
		Degree:            m.Curve.Degree(),
		Iterations:        m.Iterations,
		Converged:         m.Converged,
		ExplainedVariance: m.ExplainedVariance(),
		MSE:               m.MSE(),
		StrictlyMonotone:  m.StrictlyMonotone(),
	}
	resid := make([]float64, len(m.ResidualsSq))
	for i, r := range m.ResidualsSq {
		resid[i] = math.Sqrt(r)
	}
	sort.Float64s(resid)
	if len(resid) > 0 {
		d.ResidualQuantiles = [5]float64{
			resid[0],
			quantile(resid, 0.25),
			quantile(resid, 0.5),
			quantile(resid, 0.75),
			resid[len(resid)-1],
		}
	}
	rows := m.data.ToRows()
	d.DominanceViolations, d.ComparablePairs = order.ViolatedPairs(m.Alpha, rows, m.Scores)
	d.FrontConsistency = m.Alpha.FrontConsistency(rows, m.Scores)
	if len(m.Scores) > 0 {
		lo, hi := m.Scores[0], m.Scores[0]
		for _, s := range m.Scores {
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		d.ScoreRange = [2]float64{lo, hi}
	}
	return d
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the diagnostics as a small report.
func (d Diagnostics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RPC fit: n=%d d=%d degree=%d\n", d.N, d.Dim, d.Degree)
	fmt.Fprintf(&b, "  iterations %d (converged: %v)\n", d.Iterations, d.Converged)
	fmt.Fprintf(&b, "  explained variance %.3f, MSE %.6f\n", d.ExplainedVariance, d.MSE)
	fmt.Fprintf(&b, "  residual quantiles (min/25/50/75/max): %.4f %.4f %.4f %.4f %.4f\n",
		d.ResidualQuantiles[0], d.ResidualQuantiles[1], d.ResidualQuantiles[2],
		d.ResidualQuantiles[3], d.ResidualQuantiles[4])
	fmt.Fprintf(&b, "  strictly monotone: %v\n", d.StrictlyMonotone)
	fmt.Fprintf(&b, "  dominance violations: %d of %d comparable pairs\n",
		d.DominanceViolations, d.ComparablePairs)
	fmt.Fprintf(&b, "  Pareto front consistency: %.4f\n", d.FrontConsistency)
	fmt.Fprintf(&b, "  score range: [%.4f, %.4f]\n", d.ScoreRange[0], d.ScoreRange[1])
	return b.String()
}
