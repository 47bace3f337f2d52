package core

import (
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/order"

	"rpcrank/internal/frame"
)

// genBezierCloud samples n points from a known strictly monotone cubic in
// benefit space, applies the α orientation and additive noise, and returns
// the raw observations together with the latent scores. It is the canonical
// "ground truth available" workload for recovery tests.
func genBezierCloud(rng *rand.Rand, n int, alpha order.Direction, noise float64) (xs [][]float64, latent []float64) {
	d := alpha.Dim()
	// A strictly monotone template per coordinate in increasing space.
	pts := make([][]float64, 4)
	for r := 0; r < 4; r++ {
		pts[r] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		inner1 := 0.2 + 0.6*rng.Float64()
		inner2 := clampToRange(inner1+0.3*(rng.Float64()-0.3), 0.05, 0.95)
		lo, hi := 0.0, 1.0
		if alpha[j] < 0 {
			lo, hi = 1.0, 0.0
			inner1, inner2 = 1-inner1, 1-inner2
		}
		pts[0][j], pts[1][j], pts[2][j], pts[3][j] = lo, inner1, inner2, hi
	}
	c := bezier.MustNew(pts)
	xs = make([][]float64, n)
	latent = make([]float64, n)
	for i := 0; i < n; i++ {
		s := rng.Float64()
		latent[i] = s
		p := c.Eval(s)
		for j := range p {
			p[j] += noise * rng.NormFloat64()
		}
		xs[i] = p
	}
	return xs, latent
}

func clampToRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestFitValidation(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	good := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	cases := []struct {
		name string
		xs   [][]float64
		opts Options
	}{
		{"no data", nil, Options{Alpha: alpha}},
		{"missing alpha", good, Options{}},
		{"alpha dim mismatch", good, Options{Alpha: order.MustDirection(1)}},
		{"one row", good[:1], Options{Alpha: alpha}},
		{"bad degree", good, Options{Alpha: alpha, Degree: 9}},
		{"quintic projector non-cubic", good, Options{Alpha: alpha, Degree: 2, Projector: ProjectorQuintic}},
		{"negative maxiter", good, Options{Alpha: alpha, MaxIter: -1}},
		{"bad gridcells", good, Options{Alpha: alpha, GridCells: 1}},
		{"bad clamp", good, Options{Alpha: alpha, ClampEps: 0.7}},
		{"NaN data", [][]float64{{math.NaN(), 0}, {1, 1}}, Options{Alpha: alpha}},
	}
	for _, c := range cases {
		if _, err := Fit(c.xs, c.opts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFitRecoversLatentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, tc := range []struct {
		d     int
		alpha order.Direction
	}{
		{2, order.MustDirection(1, 1)},
		{2, order.MustDirection(1, -1)},
		{4, order.MustDirection(1, 1, -1, -1)},
	} {
		xs, latent := genBezierCloud(rng, 200, tc.alpha, 0.02)
		m, err := Fit(xs, Options{Alpha: tc.alpha})
		if err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		tau := order.KendallTau(m.Scores, latent)
		if tau < 0.95 {
			t.Errorf("d=%d alpha=%v: Kendall tau %.3f < 0.95", tc.d, tc.alpha, tau)
		}
		if !m.StrictlyMonotone() {
			t.Errorf("d=%d: fitted curve not strictly monotone", tc.d)
		}
		if ev := m.ExplainedVariance(); ev < 0.8 {
			t.Errorf("d=%d: explained variance %.3f < 0.8", tc.d, ev)
		}
	}
}

func TestFitScoreOrientation(t *testing.T) {
	// The best object (dominating everything) must get the highest score,
	// the worst the lowest, for mixed directions too.
	alpha := order.MustDirection(1, -1)
	xs := [][]float64{
		{0, 10}, // worst: low benefit, high cost
		{5, 5},
		{10, 0}, // best
	}
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if !(m.Scores[2] > m.Scores[1] && m.Scores[1] > m.Scores[0]) {
		t.Errorf("scores %v not ordered worst<mid<best", m.Scores)
	}
}

func TestFitObjectiveDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 150, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, KeepTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Objective) < 2 {
		t.Fatalf("trajectory too short: %d", len(m.Objective))
	}
	// Proposition 2: J is non-increasing until the stopping rule fires
	// (the final entry may tick up, which is exactly when Algorithm 1
	// breaks and keeps the previous iterate).
	for i := 1; i < len(m.Objective)-1; i++ {
		if m.Objective[i] > m.Objective[i-1]+1e-9 {
			t.Errorf("objective rose at iteration %d: %.9g -> %.9g", i, m.Objective[i-1], m.Objective[i])
		}
	}
}

func TestFitStrictMonotonicityGuarantee(t *testing.T) {
	// Even on adversarial non-monotone data (a circle), the fitted curve
	// itself must remain strictly monotone: the model never violates
	// Proposition 1 regardless of input.
	rng := rand.New(rand.NewSource(102))
	n := 100
	xs := make([][]float64, n)
	for i := range xs {
		theta := 2 * math.Pi * rng.Float64()
		xs[i] = []float64{0.5 + 0.4*math.Cos(theta), 0.5 + 0.4*math.Sin(theta)}
	}
	alpha := order.MustDirection(1, 1)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if !m.StrictlyMonotone() {
		t.Errorf("curve must stay strictly monotone on any data")
	}
	if v, _ := order.ViolatedPairs(alpha, m.data.ToRows(), m.Scores); v != 0 {
		// Note: on the normalised training data, a strictly monotone curve
		// cannot produce violated comparable pairs if projection is exact;
		// tolerate nothing here.
		t.Errorf("fitted scores violate %d dominance pairs", v)
	}
}

func TestFitScaleTranslationInvariance(t *testing.T) {
	// Meta-rule 1: an affine per-attribute rescaling of the inputs must not
	// change the ranking (Eq. 10/16).
	rng := rand.New(rand.NewSource(103))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 120, alpha, 0.03)
	m1, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([][]float64, len(xs))
	scale := []float64{1000, 0.01, 7}
	shift := []float64{-40, 3, 900}
	for i, row := range xs {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = scale[j]*v + shift[j]
		}
		scaled[i] = r
	}
	m2, err := Fit(scaled, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if tau := order.KendallTau(m1.Scores, m2.Scores); tau < 0.9999 {
		t.Errorf("ranking changed under affine rescaling: tau = %v", tau)
	}
}

func TestFitProjectorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 80, alpha, 0.03)
	var ref []float64
	for _, proj := range []Projector{ProjectorNewton, ProjectorQuintic} {
		m, err := Fit(xs, Options{Alpha: alpha, Projector: proj})
		if err != nil {
			t.Fatalf("%v: %v", proj, err)
		}
		if ref == nil {
			ref = m.Scores
			continue
		}
		if tau := order.KendallTau(ref, m.Scores); tau < 0.99 {
			t.Errorf("%v: ranking deviates from Newton, tau = %v", proj, tau)
		}
	}
}

func TestFitUpdatersBothConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	alpha := order.MustDirection(1, 1)
	xs, latent := genBezierCloud(rng, 100, alpha, 0.02)
	for _, upd := range []Updater{UpdaterRichardson, UpdaterPseudoInverse} {
		m, err := Fit(xs, Options{Alpha: alpha, Updater: upd})
		if err != nil {
			t.Fatalf("%v: %v", upd, err)
		}
		if tau := order.KendallTau(m.Scores, latent); tau < 0.9 {
			t.Errorf("%v: tau %.3f < 0.9", upd, tau)
		}
	}
}

func TestFitDegreeAblationRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	alpha := order.MustDirection(1, 1)
	xs, latent := genBezierCloud(rng, 100, alpha, 0.02)
	for _, deg := range []int{2, 3, 4} {
		m, err := Fit(xs, Options{Alpha: alpha, Degree: deg})
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		if m.Curve.Degree() != deg {
			t.Errorf("degree %d: curve degree %d", deg, m.Curve.Degree())
		}
		if tau := order.KendallTau(m.Scores, latent); tau < 0.85 {
			t.Errorf("degree %d: tau %.3f", deg, tau)
		}
	}
}

func TestScoreNewObservation(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 150, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	// Scoring the training rows must reproduce the training scores.
	re := m.ScoreAll(xs)
	for i := range re {
		if math.Abs(re[i]-m.Scores[i]) > 1e-6 {
			t.Fatalf("row %d: rescore %.9f vs fit %.9f", i, re[i], m.Scores[i])
		}
	}
	// A clearly dominating fresh observation scores near 1.
	if s := m.Score([]float64{10, 10}); s < 0.95 {
		t.Errorf("dominating point score = %v, want near 1", s)
	}
	if s := m.Score([]float64{-10, -10}); s > 0.05 {
		t.Errorf("dominated point score = %v, want near 0", s)
	}
}

func TestReconstructOnCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 100, alpha, 0.01)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct(0) and (1) are the worst/best corners in original space.
	lo := m.Reconstruct(0)
	hi := m.Reconstruct(1)
	if !alpha.StrictlyDominates(lo, hi) {
		t.Errorf("Reconstruct(0)=%v should be dominated by Reconstruct(1)=%v", lo, hi)
	}
	// Out-of-range s is clamped.
	hi2 := m.Reconstruct(42)
	for j := range hi {
		if math.Abs(hi2[j]-hi[j]) > 1e-12 {
			t.Errorf("Reconstruct should clamp s>1")
		}
	}
}

func TestControlPointsReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	alpha := order.MustDirection(1, -1)
	xs, _ := genBezierCloud(rng, 80, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	cp := m.ControlPoints()
	if len(cp) != 4 {
		t.Fatalf("control points: %d, want 4", len(cp))
	}
	// End points pinned by alpha in normalised space.
	if cp[0][0] != 0 || cp[0][1] != 1 || cp[3][0] != 1 || cp[3][1] != 0 {
		t.Errorf("end points %v / %v not pinned by alpha", cp[0], cp[3])
	}
	// Mutating the returned slices must not affect the model.
	cp[1][0] = 999
	if m.Curve.Points[1][0] == 999 {
		t.Errorf("ControlPoints must return copies")
	}
	// Original-space control points invert the normalisation.
	orig := m.ControlPointsOriginal()
	for j := 0; j < 2; j++ {
		want := m.Norm.Invert(m.Curve.Points[0])[j]
		if math.Abs(orig[0][j]-want) > 1e-9 {
			t.Errorf("original-space p0[%d] = %v, want %v", j, orig[0][j], want)
		}
	}
}

func TestFitTinyDatasets(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	// Two points: still fits (rank-deficient Gram handled by clamps).
	m, err := Fit([][]float64{{0, 0}, {1, 1}}, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if !(m.Scores[1] > m.Scores[0]) {
		t.Errorf("two-point fit scores %v not ordered", m.Scores)
	}
	// Duplicated observations.
	m, err = Fit([][]float64{{0, 0}, {0, 0}, {1, 1}}, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Scores[0]-m.Scores[1]) > 1e-6 {
		t.Errorf("identical rows must tie: %v", m.Scores[:2])
	}
}

func TestFitDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 60, alpha, 0.03)
	m1, err := Fit(xs, Options{Alpha: alpha, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(xs, Options{Alpha: alpha, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Scores {
		if m1.Scores[i] != m2.Scores[i] {
			t.Fatalf("same seed, different scores at %d", i)
		}
	}
}

func TestProjectorUpdaterStrings(t *testing.T) {
	if ProjectorNewton.String() != "newton" || ProjectorQuintic.String() != "quintic" ||
		Projector(9).String() != "unknown" {
		t.Errorf("Projector.String broken")
	}
	if UpdaterRichardson.String() != "richardson" || UpdaterPseudoInverse.String() != "pseudoinverse" ||
		Updater(9).String() != "unknown" {
		t.Errorf("Updater.String broken")
	}
}

func TestConditionNumbersRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 50, alpha, 0.03)
	m, err := Fit(xs, Options{Alpha: alpha, KeepTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ConditionNumbers) == 0 {
		t.Fatalf("no condition numbers recorded")
	}
	for _, c := range m.ConditionNumbers {
		if c < 1 {
			t.Errorf("condition number %v < 1", c)
		}
	}
}

// TestFitFrameMatchesFit pins the two fit entry points to each other: the
// slice-of-slice shim and the frame-native path must produce identical
// models (same curve, scores, residuals) for the same data and options.
func TestFitFrameMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 80, alpha, 0.05)
	opts := Options{Alpha: alpha, Seed: 7, Restarts: 2}

	a, err := Fit(xs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitFrame(frame.MustFromRows(xs), opts)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Curve.Points {
		for j := range a.Curve.Points[r] {
			if a.Curve.Points[r][j] != b.Curve.Points[r][j] {
				t.Fatalf("control point (%d,%d): %v vs %v", r, j, a.Curve.Points[r][j], b.Curve.Points[r][j])
			}
		}
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] || a.ResidualsSq[i] != b.ResidualsSq[i] {
			t.Fatalf("row %d: scores %v/%v residuals %v/%v", i, a.Scores[i], b.Scores[i], a.ResidualsSq[i], b.ResidualsSq[i])
		}
	}
	if a.ExplainedVariance() != b.ExplainedVariance() {
		t.Fatalf("explained variance %v vs %v", a.ExplainedVariance(), b.ExplainedVariance())
	}
	// FitFrame must not mutate the caller's frame (it clones before
	// normalising in place).
	f := frame.MustFromRows(xs)
	if _, err := FitFrame(f, Options{Alpha: alpha, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		for j := range xs[i] {
			if f.At(i, j) != xs[i][j] {
				t.Fatalf("FitFrame mutated its input at (%d,%d)", i, j)
			}
		}
	}
}
