package core

// The cubic kernel reads the row-independent terms of its arithmetic from
// the curve's cubicGrid. These tests hold it bit for bit to the kernel
// that evaluated every term per row, kept here verbatim as the oracle
// (refCubicNewtonKernel, refCubicNewtonFromSeed).

import (
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/dataset"
)

// refCubicNewtonKernel is the cubic kernel before the grid table: the
// whole degree-6 profile c0..c6 evaluated at every grid node of every row.
func refCubicNewtonKernel(c0, c1, c2, c3, c4, c5, c6 float64, cells int, wantDist bool) (float64, float64) {
	const origin = bezier.DistPolyOrigin
	h := 1 / float64(cells)
	bestI := 0
	bestV := math.Inf(1)
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
	return refCubicNewtonFromSeed(c0, c1, c2, c3, c4, c5, c6, cells, bestI, bestV, wantDist)
}

// refCubicNewtonFromSeed is the bracket classification, parabolic seed and
// Newton tail of refCubicNewtonKernel, every bracket-end polynomial
// evaluated in full.
func refCubicNewtonFromSeed(c0, c1, c2, c3, c4, c5, c6 float64, cells, bestI int, bestV float64, wantDist bool) (float64, float64) {
	const origin = bezier.DistPolyOrigin
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

	s = cubicNewtonTail(b0, b1, b2, b3, b4, b5, e0, e1, e2, e3, e4, lo, hi, s)
	if !wantDist {
		return s, 0
	}
	t := s - origin
	return s, nonNeg((((((c6*t+c5)*t+c4)*t+c3)*t+c2)*t+c1)*t + c0)
}

// refScore is Scorer.Score's cubic path over refCubicNewtonKernel: the
// same clamped one-pass collapse of the row, then the reference kernel.
func refScore(sc *Scorer, x []float64) float64 {
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
	s, _ := refCubicNewtonKernel(c0+x2, c1, c2, c3, sc.snorm[4], sc.snorm[5], sc.snorm[6], sc.eng.cells, false)
	return s
}

// gridChecker compares every cubic projection path of one model against
// the reference kernel, bit for bit.
type gridChecker struct {
	t  *testing.T
	m  *Model
	sc *Scorer
	e  *engine
	dc []float64
	u  []float64
}

func newGridChecker(t *testing.T, m *Model) *gridChecker {
	sc := m.Compile()
	return &gridChecker{
		t: t, m: m, sc: sc,
		e:  newEngine(m.Curve, sc.eng.cells),
		dc: make([]float64, 7),
		u:  make([]float64, m.Dim()),
	}
}

// check scores raw row x through Scorer.Score, and its clamped normalised
// form through engine.project and engine.projectWarm's fallback, against
// the reference kernel; it reports whether the row's score is interior.
func (g *gridChecker) check(what string, x []float64) (interior bool) {
	g.t.Helper()
	want := refScore(g.sc, x)
	if got := g.sc.Score(x); math.Float64bits(got) != math.Float64bits(want) {
		g.t.Fatalf("%s: Scorer.Score(%v) = %.17g, reference kernel %.17g", what, x, got, want)
	}
	g.m.Norm.ApplyInto(g.u, x)
	for j, v := range g.u {
		g.u[j] = min(max(v, -clampMargin), 1+clampMargin)
	}
	g.e.comp.DistPolyInto(g.dc, g.u)
	rs, rd := refCubicNewtonKernel(g.dc[0], g.dc[1], g.dc[2], g.dc[3], g.dc[4], g.dc[5], g.dc[6], g.e.cells, true)
	if s, d := g.e.project(g.u); math.Float64bits(s) != math.Float64bits(rs) || math.Float64bits(d) != math.Float64bits(rd) {
		g.t.Fatalf("%s: engine.project(%v) = (%.17g, %.17g), reference kernel (%.17g, %.17g)", what, g.u, s, d, rs, rd)
	}
	// A warm start at the far end of the curve fails its basin check on
	// every row whose minimiser is not near there, so it takes the cold
	// fallback, which must be the same kernel.
	if s, d, warm := g.e.projectWarm(g.u, math.Round(1-rs)); !warm && (math.Float64bits(s) != math.Float64bits(rs) || math.Float64bits(d) != math.Float64bits(rd)) {
		g.t.Fatalf("%s: projectWarm fallback (%v) = (%.17g, %.17g), reference kernel (%.17g, %.17g)", what, g.u, s, d, rs, rd)
	}
	return rs > 0 && rs < 1
}

// TestCubicGridKernelBitIdentical holds the table-driven kernel to the
// per-row reference on random monotone cubics at d 1–8 and grids of 2–200
// cells, on rows inside the unit box, outside it, and at and past the
// clamp bound. The grid counts include ones where cells·(1/cells) ≠ 1, on
// which the last grid node and the clipped bracket end hi = 1 differ.
func TestCubicGridKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5151))
	inexact, interior := 0, 0
	for cells := 2; cells <= 200; cells++ {
		if h := 1 / float64(cells); float64(cells)*h != 1 {
			inexact++
		}
		dim := 1 + cells%8
		m := randParityModel(rng, 3, dim)
		m.gridCells = cells
		g := newGridChecker(t, m)
		x := make([]float64, dim)
		for row := 0; row < 120; row++ {
			for j := range x {
				var u float64
				switch row % 4 {
				case 0, 1: // inside the unit box
					u = rng.Float64()
				case 2: // outside it, inside the clamp bound
					u = -3 + 7*rng.Float64()
				case 3: // at or past the clamp bound
					u = []float64{-clampMargin, 1 + clampMargin, -1e6, 1e6, 0.5}[rng.Intn(5)]
				}
				x[j] = m.Norm.Min[j] + u*(m.Norm.Max[j]-m.Norm.Min[j])
			}
			if g.check("random cubic", x) {
				interior++
			}
		}
	}
	if inexact == 0 {
		t.Fatal("no grid count in [2, 200] has cells·(1/cells) ≠ 1; the clipped-end case went untested")
	}
	if interior < 5000 {
		t.Fatalf("only %d interior scores: the Newton tail was barely exercised", interior)
	}
}

// TestCubicGridKernelBitIdenticalFitted runs the same comparison on the
// degree-3 fits of journals and countries, over their training rows and
// the same rows shifted far along and against α.
func TestCubicGridKernelBitIdenticalFitted(t *testing.T) {
	for _, ds := range []*dataset.Table{dataset.Journals(), dataset.Countries()} {
		xs := ds.Data.ToRows()
		m, err := Fit(xs, Options{Alpha: ds.Alpha, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := newGridChecker(t, m)
		x := make([]float64, m.Dim())
		for _, shift := range []float64{0, 0.25, -0.25, 3, -3, 1e15} {
			for _, r := range xs {
				for j := range x {
					x[j] = r[j] + shift*ds.Alpha[j]*(m.Norm.Max[j]-m.Norm.Min[j])
				}
				g.check(ds.Name, x)
			}
		}
	}
}

// TestCubicGridShared: every AcquireScorer call returns the model's one
// scorer, so its grid table is built once and the second call allocates
// nothing; recompile refreshes the table in place, without allocating, to
// the table a fresh engine builds.
func TestCubicGridShared(t *testing.T) {
	rng := rand.New(rand.NewSource(5152))
	m := randParityModel(rng, 3, 4)
	if a, b := m.AcquireScorer(), m.AcquireScorer(); a != b {
		t.Error("two AcquireScorer calls on one model returned different scorers")
	}
	if allocs := testing.AllocsPerRun(10, func() { m.AcquireScorer() }); allocs != 0 {
		t.Errorf("a repeated AcquireScorer allocated %.0f times", allocs)
	}

	e := newEngine(m.Curve, 48)
	g := e.grid
	c := randParityModel(rng, 3, 4).Curve
	if allocs := testing.AllocsPerRun(10, func() { e.recompile(c) }); allocs != 0 {
		t.Errorf("recompile allocated %.0f times", allocs)
	}
	if e.grid != g {
		t.Fatal("recompile replaced the grid table")
	}
	fresh := newEngine(c, 48).grid
	if g.h != fresh.h || g.c4 != fresh.c4 || g.c5 != fresh.c5 || g.c6 != fresh.c6 ||
		g.b3 != fresh.b3 || g.b4 != fresh.b4 || g.b5 != fresh.b5 ||
		g.e2 != fresh.e2 || g.e3 != fresh.e3 || g.e4 != fresh.e4 {
		t.Error("recompiled coefficients differ from a fresh engine's")
	}
	for i := range g.nodes {
		if g.nodes[i] != fresh.nodes[i] {
			t.Fatalf("recompiled node %d = %+v, fresh %+v", i, g.nodes[i], fresh.nodes[i])
		}
	}
	for j := range g.ends {
		if g.ends[j] != fresh.ends[j] {
			t.Fatalf("recompiled bracket end %d = %+v, fresh %+v", j, g.ends[j], fresh.ends[j])
		}
	}
	if newEngine(randParityModel(rng, 4, 2).Curve, 32).grid != nil {
		t.Error("a quartic engine built a cubic grid table")
	}
}
