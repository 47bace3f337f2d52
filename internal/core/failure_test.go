package core

// Failure-injection tests: adversarial inputs the fitting loop must survive
// without panics, NaNs, or broken invariants.

import (
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/order"
)

func assertFinite(t *testing.T, m *Model) {
	t.Helper()
	for i, s := range m.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("score %d is %v", i, s)
		}
		if s < 0 || s > 1 {
			t.Fatalf("score %d = %v outside [0,1]", i, s)
		}
	}
	for _, p := range m.Curve.Points {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("control point contains %v", v)
			}
		}
	}
}

func TestFitAllIdenticalRows(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	xs := [][]float64{{3, 7}, {3, 7}, {3, 7}, {3, 7}}
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, m)
	// All identical → all tied.
	for i := 1; i < len(m.Scores); i++ {
		if m.Scores[i] != m.Scores[0] {
			t.Errorf("identical rows must tie: %v", m.Scores)
		}
	}
}

func TestFitCollinearData(t *testing.T) {
	// Perfectly collinear rows: the skeleton is a straight line; the fit
	// must find it with near-zero residual.
	alpha := order.MustDirection(1, 1)
	xs := make([][]float64, 50)
	for i := range xs {
		v := float64(i) / 49
		xs[i] = []float64{v, 2 * v}
	}
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, m)
	if ev := m.ExplainedVariance(); ev < 0.999 {
		t.Errorf("collinear data explained variance %.5f, want ~1", ev)
	}
	// Ordering is the line order.
	ranks := order.RankFromScores(m.Scores)
	if ranks[49] != 1 || ranks[0] != 50 {
		t.Errorf("collinear ordering broken: first rank %d, last rank %d", ranks[0], ranks[49])
	}
}

func TestFitExtremeOutlier(t *testing.T) {
	// One row a million times larger than the rest: normalisation squashes
	// the bulk near zero, but the fit must stay finite and keep dominance.
	rng := rand.New(rand.NewSource(601))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 60, alpha, 0.02)
	xs = append(xs, []float64{1e6, 1e6})
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, m)
	// The outlier dominates everything, so it must rank first.
	ranks := order.RankFromScores(m.Scores)
	if ranks[60] != 1 {
		t.Errorf("dominating outlier ranked %d, want 1", ranks[60])
	}
	if v, _ := order.ViolatedPairs(alpha, xs, m.Scores); v != 0 {
		t.Errorf("outlier fit violates %d dominance pairs", v)
	}
}

func TestFitAntiCorrelatedAttributes(t *testing.T) {
	// Perfect trade-off data (x up, y down) under α = (+,+): no pair is
	// comparable and the curve must still produce a finite total order.
	alpha := order.MustDirection(1, 1)
	xs := make([][]float64, 40)
	for i := range xs {
		v := float64(i) / 39
		xs[i] = []float64{v, 1 - v}
	}
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, m)
	if !m.StrictlyMonotone() {
		t.Errorf("curve must remain strictly monotone on trade-off data")
	}
}

func TestFitManyDuplicateGroups(t *testing.T) {
	// Heavy ties: five distinct values, each repeated 20 times.
	alpha := order.MustDirection(1, 1)
	var xs [][]float64
	for g := 0; g < 5; g++ {
		v := float64(g) / 4
		for r := 0; r < 20; r++ {
			xs = append(xs, []float64{v, v})
		}
	}
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	assertFinite(t, m)
	// Groups must be internally tied and externally ordered.
	for g := 0; g < 5; g++ {
		base := m.Scores[g*20]
		for r := 1; r < 20; r++ {
			if m.Scores[g*20+r] != base {
				t.Fatalf("group %d not tied", g)
			}
		}
		if g > 0 && base <= m.Scores[(g-1)*20] {
			t.Fatalf("group %d not above group %d", g, g-1)
		}
	}
}

func TestFitInfinityRejected(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	if _, err := Fit([][]float64{{1, math.Inf(1)}, {0, 0}}, Options{Alpha: alpha}); err == nil {
		t.Errorf("Inf input must be rejected")
	}
}

func TestScoreDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 40, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.4, 0.6}
	clone := append([]float64{}, probe...)
	m.Score(probe)
	if probe[0] != clone[0] || probe[1] != clone[1] {
		t.Errorf("Score mutated its input")
	}
}
