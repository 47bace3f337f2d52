// Package oracle is an independent reference for the projection step of
// the ranking principal curve (Eq. 20/22): the score of a row x on a Bézier
// curve f is the global minimiser of D(s) = ‖f(s) − x‖² over s ∈ [0,1].
//
// The oracle shares no code with the production projection paths. It
// imports only the standard library and evaluates f, f′ and f″ by de
// Casteljau's algorithm straight from the Bernstein control points. It
// scans a dense parameter grid for every − → + sign change of
// g(s) = (f(s) − x)·f′(s) = D′(s)/2 and bisects each one to the last ulp.
// It is slow on purpose, and only tests import it: they hold every scoring
// and fitting path to it through Result.Check.
package oracle

import (
	"fmt"
	"math"
)

// DefaultCells is the scan resolution tests use: a local minimum is missed
// only if its basin is narrower than about 1/DefaultCells.
const DefaultCells = 1024

// Curve is a Bézier curve tabulated for projection: f, f′ and f″ at every
// node of the scan grid, each evaluated by de Casteljau. It is immutable
// and safe for concurrent use.
type Curve struct {
	k, d, cells int
	ctrl        []float64 // control points, flat: ctrl[i*d+j] = P_i[j]
	// f, f1 and f2 hold f, f′ and f″ at grid node n in [n*d, (n+1)*d),
	// and ff holds ‖f′‖² at node n.
	f, f1, f2, ff []float64
}

// New tabulates the curve with control points ctrl (at least two, all of
// one dimension) on a scan grid of cells cells.
func New(ctrl [][]float64, cells int) *Curve {
	if len(ctrl) < 2 {
		panic(fmt.Sprintf("oracle: %d control points, want at least 2", len(ctrl)))
	}
	if cells < 1 {
		panic(fmt.Sprintf("oracle: %d scan cells, want at least 1", cells))
	}
	k, d := len(ctrl)-1, len(ctrl[0])
	c := &Curve{k: k, d: d, cells: cells, ctrl: make([]float64, 0, (k+1)*d)}
	for i, p := range ctrl {
		if len(p) != d {
			panic(fmt.Sprintf("oracle: control point %d has %d coordinates, want %d", i, len(p), d))
		}
		c.ctrl = append(c.ctrl, p...)
	}
	c.f = make([]float64, (cells+1)*d)
	c.f1 = make([]float64, (cells+1)*d)
	c.f2 = make([]float64, (cells+1)*d)
	c.ff = make([]float64, cells+1)
	w := make([]float64, (k+1)*d)
	for n := range c.ff {
		f1 := c.f1[n*d : (n+1)*d]
		c.eval(w, c.node(n), c.f[n*d:(n+1)*d], f1, c.f2[n*d:(n+1)*d])
		for _, v := range f1 {
			c.ff[n] += v * v
		}
	}
	return c
}

// node returns the parameter of grid node n.
func (c *Curve) node(n int) float64 { return float64(n) / float64(c.cells) }

// eval writes f(s), f′(s) and f″(s) into f, f1 and f2, using w ((k+1)·d
// values) for the levels of the de Casteljau triangle. It runs the
// recursion down to its last two levels, which hold the points the
// derivatives are differences of: with three points q0, q1, q2 left,
// f″ = k(k−1)(q2 − 2q1 + q0); with two points r0, r1 left, f′ = k(r1 − r0)
// and f = (1−s)r0 + s·r1.
func (c *Curve) eval(w []float64, s float64, f, f1, f2 []float64) {
	k, d := c.k, c.d
	t := 1 - s
	copy(w, c.ctrl)
	clear(f2)
	for n := k; n > 1; n-- { // n+1 points remain
		if n == 2 {
			kk := float64(k * (k - 1))
			for j := range f2 {
				f2[j] = kk * (w[2*d+j] - 2*w[d+j] + w[j])
			}
		}
		lo, hi := w[:n*d], w[d:(n+1)*d]
		for i := range lo {
			lo[i] = t*lo[i] + s*hi[i]
		}
	}
	kf := float64(k)
	for j := range f {
		f1[j] = kf * (w[d+j] - w[j])
		f[j] = t*w[j] + s*w[d+j]
	}
}

// Candidate is one point of [0,1] the global minimiser can be.
type Candidate struct {
	S    float64 // curve parameter
	Dist float64 // D(S), the squared distance from x to f(S)
	// Min reports that S is a local minimiser of D on [0,1]: an interior
	// − → + sign change of D′, or an end where D does not descend into the
	// interior.
	Min bool
}

// Result is the oracle's answer for one row.
type Result struct {
	// S is the global minimiser of D on [0,1] and Dist = D(S).
	S, Dist float64
	// Candidates holds every interior local minimiser the scan found plus
	// both ends, in ascending S.
	Candidates []Candidate
	// M is max |D″| over the scan grid, the curvature scale of the
	// contract's distance and near-tie bounds.
	M float64

	c *Curve
	x []float64
}

// Project finds every candidate minimiser of D(s) = ‖f(s) − x‖². The
// Result refers to x, which must not change while the Result is in use.
func (c *Curve) Project(x []float64) *Result {
	if len(x) != c.d {
		panic(fmt.Sprintf("oracle: row has %d coordinates, curve has %d", len(x), c.d))
	}
	d := c.d
	r := &Result{c: c, x: x}
	gs := make([]float64, c.cells+1)
	for n := range gs {
		f, f1, f2 := c.f[n*d:(n+1)*d], c.f1[n*d:(n+1)*d], c.f2[n*d:(n+1)*d]
		var g, fd float64
		for j, xj := range x {
			e := f[j] - xj
			g += e * f1[j]
			fd += e * f2[j]
		}
		gs[n] = g
		if d2 := math.Abs(2 * (c.ff[n] + fd)); d2 > r.M {
			r.M = d2
		}
	}

	sc := c.scratch()
	r.Candidates = append(r.Candidates, Candidate{S: 0, Dist: sc.dist(x, 0), Min: gs[0] >= 0})
	for n := 0; n < c.cells; n++ {
		if gs[n] < 0 && gs[n+1] >= 0 {
			r.Candidates = append(r.Candidates, sc.bisect(x, c.node(n), c.node(n+1)))
		}
	}
	r.Candidates = append(r.Candidates, Candidate{S: 1, Dist: sc.dist(x, 1), Min: gs[c.cells] <= 0})

	r.S, r.Dist = r.Candidates[0].S, r.Candidates[0].Dist
	for _, cd := range r.Candidates[1:] {
		if cd.Dist < r.Dist {
			r.S, r.Dist = cd.S, cd.Dist
		}
	}
	return r
}

// DistAt returns D(s) for the row r was computed for.
func (r *Result) DistAt(s float64) float64 { return r.c.scratch().dist(r.x, s) }

// NearTie reports whether a local minimiser other than S attains a
// distance within tol of the global minimum, so that which of them a
// grid-seeded search lands on is decided by its seed, not by the profile.
func (r *Result) NearTie(tol float64) bool {
	for _, c := range r.Candidates {
		if c.Min && c.S != r.S && c.Dist-r.Dist <= tol {
			return true
		}
	}
	return false
}

// Check holds a projector's score s for this row, made with a seed grid of
// cells cells (spacing h = 1/cells), to the projection contract:
//
//	(a) D(s) ≤ Dist + M·h²/8 + 1e-12·(1 + Dist), the distance a grid-seeded
//	    search guarantees: the seed node nearest the global minimiser is
//	    within h/2 of it;
//	(b) |s − S| ≤ 1e-12, unless the row is a near tie (another local
//	    minimiser lies within M·h²/4 of the global minimum) or D is flat
//	    at S (see Flat).
//
// It returns nil when both hold.
func (r *Result) Check(s float64, cells int) error {
	if err := r.CheckDist(s, cells); err != nil {
		return err
	}
	h := 1 / float64(cells)
	if math.Abs(s-r.S) > 1e-12 && !r.NearTie(r.M*h*h/4) && !r.Flat() {
		return fmt.Errorf("(b) score %.17g vs the oracle's %.17g (|Δ|=%.3g, neither a near tie nor flat)", s, r.S, math.Abs(s-r.S))
	}
	return nil
}

// Flat reports whether D is flat to second order at S: within δ = 1e-4 of
// S it rises by less than a curvature D″ = 1e-3 would make it. There the
// profile pins s only to a root of its rounding, and no projector can meet
// part (b)'s 1e-12: on a curve that stalls (P₀ = P₁ = P₂) the engine's
// score sat 8.5e-4 from the oracle's, and on a curve whose row's error
// vector is normal to both f′(0) and f″(0) (so D′(0) = D″(0) = 0), 2.9e-8.
func (r *Result) Flat() bool {
	const delta = 1e-4
	rise := math.Inf(1)
	for _, s := range []float64{r.S - delta, r.S + delta} {
		if s >= 0 && s <= 1 {
			rise = math.Min(rise, r.DistAt(s)-r.Dist)
		}
	}
	return rise < 1e-3*delta*delta/2
}

// CheckDist is part (a) of Check alone, with the range check.
func (r *Result) CheckDist(s float64, cells int) error {
	if !(s >= 0 && s <= 1) {
		return fmt.Errorf("score %v outside [0,1]", s)
	}
	h := 1 / float64(cells)
	if d := r.DistAt(s); d > r.Dist+r.M*h*h/8+1e-12*(1+r.Dist) {
		return fmt.Errorf("(a) distance %.17g at s=%.17g exceeds the oracle's %.17g at s=%.17g by %.3g (M=%.3g, h=%v)",
			d, s, r.Dist, r.S, d-r.Dist, r.M, h)
	}
	return nil
}

// scratch is the working storage of off-grid evaluations.
type scratch struct {
	c            *Curve
	w, f, f1, f2 []float64
}

func (c *Curve) scratch() *scratch {
	return &scratch{c: c, w: make([]float64, (c.k+1)*c.d),
		f: make([]float64, c.d), f1: make([]float64, c.d), f2: make([]float64, c.d)}
}

// dist returns D(s).
func (sc *scratch) dist(x []float64, s float64) float64 {
	sc.c.eval(sc.w, s, sc.f, sc.f1, sc.f2)
	var d float64
	for j, xj := range x {
		e := sc.f[j] - xj
		d += e * e
	}
	return d
}

// g returns g(s) = (f(s) − x)·f′(s).
func (sc *scratch) g(x []float64, s float64) float64 {
	sc.c.eval(sc.w, s, sc.f, sc.f1, sc.f2)
	var g float64
	for j, xj := range x {
		g += (sc.f[j] - xj) * sc.f1[j]
	}
	return g
}

// bisect narrows a sign change g(lo) < 0 ≤ g(hi) until lo and hi are
// adjacent floats, and returns whichever of them is closer to x.
func (sc *scratch) bisect(x []float64, lo, hi float64) Candidate {
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if sc.g(x, mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	dl, dh := sc.dist(x, lo), sc.dist(x, hi)
	if dl < dh {
		return Candidate{S: lo, Dist: dl, Min: true}
	}
	return Candidate{S: hi, Dist: dh, Min: true}
}
