package core

import (
	"math"

	"rpcrank/internal/bezier"
	"rpcrank/internal/polyroot"
)

// projectQuintic solves the orthogonality condition g(s) = (f(s)−x)·f′(s) = 0
// exactly. For a cubic curve each coordinate f_j is a cubic polynomial, so g
// is a quintic; its real roots in [0,1] together with the interval endpoints
// are the candidate minimisers, and the closest one wins. The engine calls
// it for every row of a quintic model, fitted or served.
func projectQuintic(c *bezier.Curve, x []float64) (float64, float64) {
	coeffs := c.MonomialCoeffs() // per-dim cubic coefficients, len 4
	// g(s) = Σ_j (f_j(s) − x_j)·f_j′(s); accumulate monomial coefficients.
	g := make([]float64, 6)
	for j, cj := range coeffs {
		// Shifted cubic (f_j − x_j).
		a := append([]float64{}, cj...)
		a[0] -= x[j]
		// Derivative coefficients of f_j: quadratic.
		der := []float64{cj[1], 2 * cj[2], 3 * cj[3]}
		for p, ap := range a {
			if ap == 0 {
				continue
			}
			for q, dq := range der {
				g[p+q] += ap * dq
			}
		}
	}
	poly := polyroot.NewPoly(g)
	candidates := poly.RealRootsIn(0, 1, 1e-9)
	candidates = append(candidates, 0, 1)
	best := 0.0
	bestD := math.Inf(1)
	for _, s := range candidates {
		if d := c.DistanceTo(x, s); d < bestD {
			bestD, best = d, s
		}
	}
	return best, bestD
}
