package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
	"rpcrank/internal/oracle"
	"rpcrank/internal/order"
	"rpcrank/internal/stats"
)

// scoreParityTol bounds the gap between two engine paths that refine the
// same row in the same basin — the fit's training score and the compiled
// scorer: what remains is rounding-level perturbation of one root.
const scoreParityTol = 1e-12

// randParityModel assembles a serving model (curve + normaliser + projector
// options) directly, bypassing Fit, over random componentwise-monotone
// curves — the model class the RPC produces (Proposition 1: sorted control
// coordinates make every f_j monotone) and the class the projection
// contract's tests draw from. Alpha follows each coordinate's direction,
// so the curve is monotone along it.
func randParityModel(rng *rand.Rand, deg, dim int, proj Projector) *Model {
	pts := make([][]float64, deg+1)
	for r := range pts {
		pts[r] = make([]float64, dim)
	}
	col := make([]float64, deg+1)
	signs := make([]float64, dim)
	for j := 0; j < dim; j++ {
		for r := range col {
			col[r] = rng.Float64()
		}
		sort.Float64s(col)
		signs[j] = 1
		if rng.Intn(2) == 0 { // decreasing coordinates are monotone too
			for l, r := 0, len(col)-1; l < r; l, r = l+1, r-1 {
				col[l], col[r] = col[r], col[l]
			}
			signs[j] = -1
		}
		for r := range col {
			pts[r][j] = col[r]
		}
	}
	mn := make([]float64, dim)
	mx := make([]float64, dim)
	for j := range mn {
		mn[j] = -5 + 10*rng.Float64()
		mx[j] = mn[j] + 0.1 + 5*rng.Float64()
	}
	opts := Options{Alpha: order.MustDirection(signs...), Projector: proj}.withDefaults()
	return &Model{
		Curve: bezier.MustNew(pts),
		Alpha: opts.Alpha,
		Norm:  &stats.Normalizer{Min: mn, Max: mx},
		opts:  opts,
	}
}

// TestCompiledScoreParityProperty holds the compiled scorer to the oracle's
// projection contract across random curves (degrees 2–5, d up to 16) on 1k
// random rows per curve — including rows far outside the data box, whose
// projections clamp to the curve ends. Each configuration draws three
// Newton-served curves, plus a quintic-served one for cubics.
func TestCompiledScoreParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rowsPer = 1000
	for deg := 2; deg <= 5; deg++ {
		for _, dim := range []int{1, 2, 4, 8, 16} {
			projectors := []Projector{ProjectorNewton, ProjectorNewton, ProjectorNewton}
			if deg == 3 {
				projectors = append(projectors, ProjectorQuintic)
			}
			for _, proj := range projectors {
				m := randParityModel(rng, deg, dim, proj)
				sc := m.Compile()
				oc := oracleCurve(m.Curve)
				cells := m.opts.GridCells
				x := make([]float64, dim)
				fr := frame.WithCapacity(dim, rowsPer)
				refs := make([]*oracle.Result, 0, rowsPer)
				for trial := 0; trial < rowsPer; trial++ {
					for j := range x {
						// Stretch 30% beyond the normaliser box so end-point
						// projections (s exactly 0 or 1) are exercised too.
						u := -0.3 + 1.6*rng.Float64()
						x[j] = m.Norm.Min[j] + u*(m.Norm.Max[j]-m.Norm.Min[j])
					}
					ref := oc.Project(unitRow(m, x))
					if err := ref.Check(sc.Score(x), cells); err != nil {
						t.Fatalf("deg=%d dim=%d proj=%v row %d: Score: %v", deg, dim, proj, trial, err)
					}
					fr.AppendRow(x)
					refs = append(refs, ref)
				}
				// ScoreFrame carries the same contract over the whole batch
				// at once.
				batch := sc.ScoreFrame(nil, fr)
				for i, b := range batch {
					if err := refs[i].Check(b, cells); err != nil {
						t.Fatalf("deg=%d dim=%d proj=%v row %d: ScoreFrame: %v", deg, dim, proj, i, err)
					}
				}
			}
		}
	}
}

// TestCompiledScoreParityFittedModel holds the compiled scorer to the
// oracle on the curves that matter in production: ones Fit actually
// produces, across projectors, on the training rows.
func TestCompiledScoreParityFittedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 150, alpha, 0.03)
	for _, proj := range []Projector{ProjectorQuintic, ProjectorNewton} {
		m, err := Fit(xs, Options{Alpha: alpha, Projector: proj, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", proj, err)
		}
		sc := m.Compile()
		oc := oracleCurve(m.Curve)
		for i, x := range xs {
			got := sc.Score(x)
			if err := oc.Project(unitRow(m, x)).Check(got, m.opts.GridCells); err != nil {
				t.Errorf("%v row %d: compiled: %v", proj, i, err)
			}
			// The training scores come from the fit-loop engine and must
			// stay consistent with serving.
			if math.Abs(m.Scores[i]-got) > scoreParityTol {
				t.Errorf("%v row %d: training score %v vs compiled %v", proj, i, m.Scores[i], got)
			}
		}
	}
}

// TestScorerZeroAllocs is the alloc ceiling of the tentpole: scoring one
// row through a compiled Newton scorer performs zero heap allocations at
// every degree (the quintic root solver is documented as allocating).
func TestScorerZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for deg := 2; deg <= 5; deg++ {
		m := randParityModel(rng, deg, 4, ProjectorNewton)
		sc := m.Compile()
		probe := []float64{
			m.Norm.Min[0] + 0.3*(m.Norm.Max[0]-m.Norm.Min[0]),
			m.Norm.Min[1] + 0.9*(m.Norm.Max[1]-m.Norm.Min[1]),
			m.Norm.Min[2] + 0.5*(m.Norm.Max[2]-m.Norm.Min[2]),
			m.Norm.Min[3] + 0.1*(m.Norm.Max[3]-m.Norm.Min[3]),
		}
		if n := testing.AllocsPerRun(200, func() { sc.Score(probe) }); n != 0 {
			t.Errorf("deg=%d: Scorer.Score allocates %v times per call", deg, n)
		}
	}
}

// TestScoreFrameReusesBuffer pins ScoreFrame's buffer contract: dst is
// kept when it has the capacity, the scores match per-row Score exactly,
// and a warm scorer allocates nothing for the whole batch.
func TestScoreFrameReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := randParityModel(rng, 3, 2, ProjectorNewton)
	sc := m.Compile()
	fr := frame.MustFromRows([][]float64{
		{m.Norm.Min[0], m.Norm.Min[1]},
		{m.Norm.Max[0], m.Norm.Max[1]},
		{0.5 * (m.Norm.Min[0] + m.Norm.Max[0]), 0.5 * (m.Norm.Min[1] + m.Norm.Max[1])},
	})
	dst := make([]float64, 0, 8)
	out := sc.ScoreFrame(dst, fr)
	if len(out) != fr.N() {
		t.Fatalf("ScoreFrame returned %d scores, want %d", len(out), fr.N())
	}
	if &out[0] != &dst[:1][0] {
		t.Errorf("ScoreFrame did not reuse the provided backing array")
	}
	for i := range out {
		if got := sc.Score(fr.Row(i)); got != out[i] {
			t.Errorf("row %d: ScoreFrame %v vs Score %v", i, out[i], got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sc.ScoreFrame(out, fr) }); n != 0 {
		t.Errorf("warm ScoreFrame allocates %v times per batch", n)
	}
	// Model.ScoreFrame (pooled scorer) agrees with the direct path.
	for i, v := range m.ScoreFrame(fr) {
		if v != out[i] {
			t.Errorf("row %d: Model.ScoreFrame %v vs Scorer.ScoreFrame %v", i, v, out[i])
		}
	}
}

// TestScoreIntoReusesBuffer pins ScoreInto's buffer contract.
func TestScoreIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := randParityModel(rng, 3, 2, ProjectorNewton)
	sc := m.Compile()
	rows := [][]float64{
		{m.Norm.Min[0], m.Norm.Min[1]},
		{m.Norm.Max[0], m.Norm.Max[1]},
		{0.5 * (m.Norm.Min[0] + m.Norm.Max[0]), 0.5 * (m.Norm.Min[1] + m.Norm.Max[1])},
	}
	dst := make([]float64, 0, 8)
	out := sc.ScoreInto(dst, rows)
	if len(out) != len(rows) {
		t.Fatalf("ScoreInto returned %d scores, want %d", len(out), len(rows))
	}
	if &out[0] != &dst[:1][0] {
		t.Errorf("ScoreInto did not reuse the provided backing array")
	}
	// Capacity too small: a fresh slice must be allocated, same values.
	out2 := sc.ScoreInto(make([]float64, 0, 1), rows)
	for i := range out {
		if out[i] != out2[i] {
			t.Errorf("row %d: reused %v vs fresh %v", i, out[i], out2[i])
		}
	}
	// And it must agree with ScoreAll and per-row scoring.
	all := m.ScoreAll(rows)
	for i := range all {
		if all[i] != out[i] {
			t.Errorf("row %d: ScoreAll %v vs ScoreInto %v", i, all[i], out[i])
		}
	}
}

// TestScorerCloneIndependent verifies clones share coefficients but not
// scratch: concurrent use of clones is race-free (run with -race).
func TestScorerCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := randParityModel(rng, 3, 3, ProjectorNewton)
	sc := m.Compile()
	rows := make([][]float64, 64)
	for i := range rows {
		row := make([]float64, 3)
		for j := range row {
			row[j] = m.Norm.Min[j] + rng.Float64()*(m.Norm.Max[j]-m.Norm.Min[j])
		}
		rows[i] = row
	}
	want := sc.ScoreInto(nil, rows)
	done := make(chan []float64, 4)
	for w := 0; w < 4; w++ {
		go func() {
			done <- sc.Clone().ScoreInto(nil, rows)
		}()
	}
	for w := 0; w < 4; w++ {
		got := <-done
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("clone score %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

// TestCompileServesLoadedModels: a model round-tripped through Save/Load
// (no training diagnostics) must compile and agree with its source.
func TestCompileServesLoadedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	alpha := order.MustDirection(1, -1)
	xs, _ := genBezierCloud(rng, 80, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sc := loaded.Compile()
	oc := oracleCurve(loaded.Curve)
	for i, x := range xs[:20] {
		if err := oc.Project(unitRow(loaded, x)).Check(sc.Score(x), loaded.opts.GridCells); err != nil {
			t.Errorf("row %d: loaded-compiled: %v", i, err)
		}
	}
}
