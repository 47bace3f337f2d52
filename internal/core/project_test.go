package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rpcrank/internal/bezier"
	"rpcrank/internal/order"
)

func randMonotoneCubic(rng *rand.Rand, d int) *bezier.Curve {
	pts := make([][]float64, 4)
	for r := range pts {
		pts[r] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		a := 0.1 + 0.8*rng.Float64()
		b := clampToRange(a+0.3*(rng.Float64()-0.4), 0.05, 0.95)
		pts[0][j], pts[1][j], pts[2][j], pts[3][j] = 0, a, b, 1
	}
	return bezier.MustNew(pts)
}

// TestProjectAgainstBruteForce holds the engine to the oracle's dense scan
// on random monotone cubics: the score meets the projection contract and
// the returned distance is the oracle's D at that score.
func TestProjectAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		c := randMonotoneCubic(rng, 3)
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		r := oracleCurve(c).Project(x)
		s, d := newEngine(c, defaultGridCells).project(x)
		if err := r.Check(s, defaultGridCells); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if want := r.DistAt(s); math.Abs(d-want) > 1e-12*(1+want) {
			t.Errorf("trial %d: distance %.17g vs the oracle's D(s) %.17g", trial, d, want)
		}
	}
}

func TestProjectionDistanceQuickProperty(t *testing.T) {
	// For any point and any parameter, the projected distance is a lower
	// bound on the distance at that parameter, and the projection meets the
	// oracle's contract.
	rng := rand.New(rand.NewSource(203))
	c := randMonotoneCubic(rng, 2)
	e := newEngine(c, defaultGridCells)
	oc := oracleCurve(c)
	f := func(rawX, rawY, rawS float64) bool {
		x := []float64{fold(rawX), fold(rawY)}
		s := fold(rawS)
		ps, projD := e.project(x)
		r := oc.Project(x)
		if err := r.Check(ps, defaultGridCells); err != nil {
			t.Log(err)
			return false
		}
		return projD <= r.DistAt(s)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func fold(v float64) float64 {
	v = math.Mod(math.Abs(v), 1)
	if math.IsNaN(v) {
		return 0.5
	}
	return v
}

func TestFitOneDimensional(t *testing.T) {
	// d=1 degenerates to sorting, but must still work end to end.
	xs := [][]float64{{3}, {1}, {4}, {1.5}, {9}, {2.6}}
	m, err := Fit(xs, Options{Alpha: order.MustDirection(1)})
	if err != nil {
		t.Fatal(err)
	}
	ranks := order.RankFromScores(m.Scores)
	// 9 is best, 1 is worst.
	if ranks[4] != 1 || ranks[1] != 6 {
		t.Errorf("1-D ranking wrong: %v", ranks)
	}
}

func TestFitHighDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	alpha := order.MustDirection(1, 1)
	xs, latent := genBezierCloud(rng, 120, alpha, 0.02)
	for _, deg := range []int{5, 6} {
		m, err := Fit(xs, Options{Alpha: alpha, Degree: deg})
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		if tau := order.KendallTau(m.Scores, latent); tau < 0.85 {
			t.Errorf("degree %d: tau %.3f", deg, tau)
		}
	}
	if _, err := Fit(xs, Options{Alpha: alpha, Degree: 7}); err == nil {
		t.Errorf("degree 7 should be rejected")
	}
}

func TestNoNormalizeValidation(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	if _, err := Fit([][]float64{{0.5, 1.5}, {0.2, 0.3}}, Options{Alpha: alpha, NoNormalize: true}); err == nil {
		t.Errorf("out-of-box data must be rejected under NoNormalize")
	}
	if _, err := Fit([][]float64{{0.5, math.NaN()}, {0.2, 0.3}}, Options{Alpha: alpha, NoNormalize: true}); err == nil {
		t.Errorf("NaN must be rejected under NoNormalize")
	}
	m, err := Fit([][]float64{{0, 0}, {0.5, 0.5}, {1, 1}}, Options{Alpha: alpha, NoNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Under NoNormalize the normaliser is the identity on [0,1].
	got := m.Norm.Apply([]float64{0.25, 0.75})
	if got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("NoNormalize normaliser not identity: %v", got)
	}
}

func TestConvergedFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 60, alpha, 0.02)
	// Generous tolerance: must converge well before the cap.
	m, err := Fit(xs, Options{Alpha: alpha, Tol: 1e-3, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged && m.Iterations >= 500 {
		t.Errorf("fit did not converge within the cap at loose tolerance")
	}
}

func TestMultiStartNeverWorseThanSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 80, alpha, 0.05)
	single, err := Fit(xs, Options{Alpha: alpha, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Fit(xs, Options{Alpha: alpha, Seed: 5, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if multi.MSE() > single.MSE()+1e-12 {
		t.Errorf("multi-start MSE %.9f worse than single %.9f", multi.MSE(), single.MSE())
	}
}

func TestInitInnerClamped(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	xs := [][]float64{{0, 0}, {0.5, 0.4}, {1, 1}}
	// Init points far outside the box must be clamped, not crash.
	m, err := Fit(xs, Options{
		Alpha:       alpha,
		NoNormalize: true,
		initInner:   [][]float64{{-5, 9}, {3, -2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.StrictlyMonotone() {
		t.Errorf("fit from clamped init lost monotonicity")
	}
}
