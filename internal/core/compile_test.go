package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
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

// randParityModel assembles a serving model (curve + normaliser + projection
// grid) directly, bypassing Fit, over random componentwise-monotone
// curves — the model class the RPC produces (Proposition 1: sorted control
// coordinates make every f_j monotone) and the class the projection
// contract's tests draw from. Alpha follows each coordinate's direction,
// so the curve is monotone along it.
func randParityModel(rng *rand.Rand, deg, dim int) *Model {
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
	return &Model{
		Curve: bezier.MustNew(pts),
		Alpha: order.MustDirection(signs...),
		Norm:  &stats.Normalizer{Min: mn, Max: mx},
	}
}

// TestCompiledScoreParityProperty holds the compiled scorer to the oracle's
// projection contract across random curves (degrees 2–5, d up to 16) on 1k
// random rows per curve — including rows far outside the data box, whose
// projections clamp to the curve ends. Each configuration draws three
// curves.
func TestCompiledScoreParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rowsPer = 1000
	for deg := 2; deg <= 5; deg++ {
		for _, dim := range []int{1, 2, 4, 8, 16} {
			for curve := 0; curve < 3; curve++ {
				m := randParityModel(rng, deg, dim)
				sc := m.Compile()
				oc := oracleCurve(m.Curve)
				const cells = defaultGridCells
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
						t.Fatalf("deg=%d dim=%d curve %d row %d: Score: %v", deg, dim, curve, trial, err)
					}
					fr.AppendRow(x)
					refs = append(refs, ref)
				}
				// ScoreFrame carries the same contract over the whole batch
				// at once.
				batch := sc.ScoreFrame(nil, fr)
				for i, b := range batch {
					if err := refs[i].Check(b, cells); err != nil {
						t.Fatalf("deg=%d dim=%d curve %d row %d: ScoreFrame: %v", deg, dim, curve, i, err)
					}
				}
			}
		}
	}
}

// TestCompiledScoreParityFittedModel holds the compiled scorer to the
// oracle on the curves that matter in production: ones Fit actually
// produces, on the training rows.
func TestCompiledScoreParityFittedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 150, alpha, 0.03)
	m, err := Fit(xs, Options{Alpha: alpha, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.Compile()
	oc := oracleCurve(m.Curve)
	for i, x := range xs {
		got := sc.Score(x)
		if err := oc.Project(unitRow(m, x)).Check(got, m.gridCells); err != nil {
			t.Errorf("row %d: compiled: %v", i, err)
		}
		// The training scores come from the fit-loop engine and must
		// stay consistent with serving.
		if math.Abs(m.Scores[i]-got) > scoreParityTol {
			t.Errorf("row %d: training score %v vs compiled %v", i, m.Scores[i], got)
		}
	}
}

// TestScorerZeroAllocs is the scorer's alloc ceiling: scoring one row
// performs zero heap allocations for every rule Load accepts, degrees
// minDegree to maxDegree, through the cubic fast path and the generic
// engine alike, at narrow and wide rows.
func TestScorerZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	at := []float64{0.3, 0.9, 0.5, 0.1}
	for deg := minDegree; deg <= maxDegree; deg++ {
		for _, dim := range []int{1, 2, 4, 8} {
			m := randParityModel(rng, deg, dim)
			t.Run(fmt.Sprintf("deg=%d/d=%d", deg, dim), func(t *testing.T) {
				sc := m.Compile()
				probe := make([]float64, dim)
				for j := range probe {
					probe[j] = m.Norm.Min[j] + at[j%len(at)]*(m.Norm.Max[j]-m.Norm.Min[j])
				}
				if n := testing.AllocsPerRun(200, func() { sc.Score(probe) }); n != 0 {
					t.Errorf("Scorer.Score allocates %v times per call", n)
				}
			})
		}
	}
}

// TestScoreFrameReusesBuffer pins ScoreFrame's buffer contract: dst is
// kept when it has the capacity, the scores match per-row Score exactly,
// and a warm scorer allocates nothing for the whole batch.
func TestScoreFrameReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := randParityModel(rng, 3, 2)
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
	m := randParityModel(rng, 3, 2)
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

// TestScorerShared: a model's one scorer serves concurrent callers. Eight
// goroutines score through one AcquireScorer() at every degree Fit accepts
// and d ∈ {1, 3, 8}, and on the legacy 48-cell quartic rule, over rows
// inside and outside the training box, and every score must be
// bit-identical to the serial one. Run with -race.
func TestScorerShared(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	type model struct {
		name string
		m    *Model
	}
	var models []model
	for deg := minDegree; deg <= maxDegree; deg++ {
		for _, dim := range []int{1, 3, 8} {
			models = append(models, model{fmt.Sprintf("deg=%d/d=%d", deg, dim), randParityModel(rng, deg, dim)})
		}
	}
	doc, err := os.ReadFile("testdata/legacy/rule-unknown-projector.json")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Curve.Degree() != 4 || legacy.gridCells != 48 {
		t.Fatalf("legacy rule: degree %d, %d cells; want the 48-cell quartic", legacy.Curve.Degree(), legacy.gridCells)
	}
	models = append(models, model{"legacy-48-cell-quartic", legacy})
	for _, c := range models {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			rows := make([][]float64, 256)
			for i := range rows {
				row := make([]float64, m.Dim())
				for j := range row {
					u := rng.Float64()
					if i%4 == 3 {
						u = -3 + 7*rng.Float64()
					}
					row[j] = m.Norm.Min[j] + u*(m.Norm.Max[j]-m.Norm.Min[j])
				}
				rows[i] = row
			}
			sc := m.AcquireScorer()
			want := make([]float64, len(rows))
			for i, x := range rows {
				want[i] = sc.Score(x)
			}
			const workers = 8
			got := make([][]float64, workers)
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]float64, len(rows))
					for i := range rows {
						// Each goroutine walks the rows from its own offset,
						// so different rows are in flight at once.
						k := (i + w*len(rows)/workers) % len(rows)
						out[k] = sc.Score(rows[k])
					}
					got[w] = out
				}()
			}
			wg.Wait()
			for w, out := range got {
				for i := range want {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("goroutine %d row %d: %.17g, serial %.17g", w, i, out[i], want[i])
					}
				}
			}
		})
	}
}

// TestScorerDimensionPanic: a row of the wrong width panics with the
// normaliser's canonical message at every degree, through the cubic
// register path and the stack-held profile alike.
func TestScorerDimensionPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for deg := minDegree; deg <= maxDegree; deg++ {
		m := randParityModel(rng, deg, 3)
		for _, width := range []int{0, 2, 4} {
			want := fmt.Sprintf("stats: dimension mismatch: normalizer 3, row %d", width)
			for name, score := range map[string]func([]float64) float64{
				"Scorer.Score": m.Compile().Score,
				"Model.Score":  m.Score,
			} {
				func() {
					defer func() {
						if r := recover(); r != want {
							t.Errorf("deg=%d width %d %s: panic %v, want %q", deg, width, name, r, want)
						}
					}()
					score(make([]float64, width))
				}()
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
		if err := oc.Project(unitRow(loaded, x)).Check(sc.Score(x), loaded.gridCells); err != nil {
			t.Errorf("row %d: loaded-compiled: %v", i, err)
		}
	}
}
