package core

// Tests of the cold projection passes: the fit's grid-seeded pass and
// the serving batch path (Scorer.ScoreFrameRange) held to internal/oracle,
// which shares no code with the engine or bezier; explicit edge-projection
// and bracket-miss rows; range boundaries; the fit's warm pass; and
// cancellation.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/frame"
	"rpcrank/internal/oracle"
	"rpcrank/internal/order"
	"rpcrank/internal/stats"
)

// coldParityCheck projects every row of u (normalised space) through the
// fit's cold pass (projectPass) and through ScoreFrameRange of a model
// whose normaliser is the identity, and holds every score to the oracle's
// projection contract (oracle.Result.Check) and every cold residual to the
// oracle's D(s) at 1e-12 relative. It returns the fit's and the serving
// path's scores for exact checks.
func coldParityCheck(t *testing.T, c *bezier.Curve, alpha order.Direction, u *frame.Frame) (cold, served []float64) {
	t.Helper()
	return checkColdPaths(t, oracleRows(c, u), c, alpha, u)
}

// checkColdPaths is coldParityCheck with the oracle's results for the rows
// of u already in hand.
func checkColdPaths(t *testing.T, refs []*oracle.Result, c *bezier.Curve, alpha order.Direction, u *frame.Frame) (cold, served []float64) {
	t.Helper()
	n := u.N()
	cold = make([]float64, n)
	resid := make([]float64, n)
	projectPass(newEngine(c, defaultGridCells), c, u, cold, resid, nil)
	for i := 0; i < n; i++ {
		if err := refs[i].Check(cold[i], defaultGridCells); err != nil {
			t.Fatalf("row %d: cold pass: %v", i, err)
		}
		if d := refs[i].DistAt(cold[i]); math.Abs(resid[i]-d) > 1e-12*(1+d) {
			t.Fatalf("row %d: cold resid %.17g vs the oracle's D(s) %.17g", i, resid[i], d)
		}
	}
	served = make([]float64, n)
	identityModel(c, alpha).Compile().ScoreFrameRange(served, u, 0, n)
	for i := 0; i < n; i++ {
		if err := refs[i].Check(served[i], defaultGridCells); err != nil {
			t.Fatalf("row %d: ScoreFrameRange: %v", i, err)
		}
	}
	return cold, served
}

// identityModel wraps c in a serving model whose normaliser is the identity
// on [0,1]^d, so normalised frames are its raw rows bit for bit.
func identityModel(c *bezier.Curve, alpha order.Direction) *Model {
	d := c.Dim()
	mx := make([]float64, d)
	for j := range mx {
		mx[j] = 1
	}
	return &Model{Curve: c, Alpha: alpha, Norm: &stats.Normalizer{Min: make([]float64, d), Max: mx}}
}

// TestColdPassMatchesReference is the cold-pass parity property test over
// fitted monotone curves, across degrees and dimensions.
func TestColdPassMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		deg  int
		dim  int
		seed int64
	}{
		{"newton-cubic-d3", 3, 3, 101},
		{"newton-cubic-d2", 3, 2, 102},
		{"newton-cubic-d4", 3, 4, 103},
		{"newton-cubic-d7", 3, 7, 104}, // wide rows
		{"newton-deg5", 5, 3, 107},
		{"newton-deg2", 2, 4, 108},
		{"newton-deg4", 4, 2, 109},
		{"newton-deg6", 6, 3, 110},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			signs := make([]float64, tc.dim)
			for j := range signs {
				signs[j] = 1
				if rng.Intn(2) == 0 {
					signs[j] = -1
				}
			}
			alpha := order.MustDirection(signs...)
			xs, _ := genBezierCloud(rng, 257, alpha, 0.05)
			m, err := Fit(xs, Options{Alpha: alpha, Degree: tc.deg, MaxIter: 15})
			if err != nil {
				t.Fatal(err)
			}
			coldParityCheck(t, m.Curve, m.Alpha, m.data)
		})
	}
}

// TestColdPassEdgeRows pins the classification-fail behaviour: rows far
// past the curve's end points project onto the domain edges s=0/1, where
// the projector publishes the grid node itself (no bracket refinement).
// The cold pass and the serving path must land on exactly those nodes —
// these rows are the ones where a seeding disagreement would not be
// polished away by Newton.
func TestColdPassEdgeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 64, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dim()
	// Rows x = f(0) − c·f′(0) sit outward along the start tangent, so
	// D′(0) = 2c‖f′(0)‖² > 0: the grid best is node 0, the bracket cannot
	// slope down on its left edge, classification misses, and the per-row
	// path publishes the grid node s=0 *exactly* (symmetrically s=1 at the
	// far end). These are the rows where a seeding disagreement could not be
	// polished away by Newton, so the assertions below demand the exact edge
	// values. The remaining rows probe corners and the interior
	// for parity only.
	f0 := m.Curve.Eval(0)
	f1 := m.Curve.Eval(1)
	der := m.Curve.Derivative()
	t0 := der.Eval(0)
	t1 := der.Eval(1)
	ef := frame.New(8, d)
	for j := 0; j < d; j++ {
		lo, hi := 0.0, 1.0
		if m.Alpha[j] < 0 {
			lo, hi = 1, 0
		}
		ef.Set(0, j, f0[j]-2*t0[j])    // far out along the start tangent → s=0
		ef.Set(1, j, f1[j]+2*t1[j])    // far out along the end tangent → s=1
		ef.Set(2, j, f0[j]-1e-9*t0[j]) // infinitesimally outside the start
		ef.Set(3, j, f1[j]+1e-9*t1[j]) // infinitesimally outside the end
		ef.Set(4, j, lo)               // exact worst corner
		ef.Set(5, j, hi)               // exact best corner
		ef.Set(6, j, 0.5)              // centre (interior basin)
		ef.Set(7, j, lo-3)             // far past the worst corner
	}
	// The fit's cold pass and the served scorer must both publish the edge
	// nodes exactly.
	cold, served := coldParityCheck(t, m.Curve, m.Alpha, ef)
	for _, scores := range [][]float64{cold, served} {
		if scores[0] != 0 || scores[2] != 0 {
			t.Fatalf("start-tangent rows scored %v / %v, want exactly 0", scores[0], scores[2])
		}
		if scores[1] != 1 || scores[3] != 1 {
			t.Fatalf("end-tangent rows scored %v / %v, want exactly 1", scores[1], scores[3])
		}
	}
}

// marginFrame builds n rows in normalised space spanning [-0.3, 1.3] per
// coordinate, so the batch holds interior basins, near-edge brackets, and
// bracket-miss rows that publish a grid node exactly.
func marginFrame(rng *rand.Rand, n, dim int) *frame.Frame {
	u := frame.New(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			u.Set(i, j, rng.Float64()*1.6-0.3)
		}
	}
	return u
}

// TestColdPassRandomCurves: the cold pass and the serving path vs the
// reference over random monotone curves (not fitted ones) across degrees
// (the cubic Newton kernel and the general-degree refinement), dimensions,
// and row counts around the 64-row cancellation poll (n%8 ∈ {0, 1, 7}).
// Every batch must also hold bracket-miss rows that land exactly on s=0/1.
func TestColdPassRandomCurves(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, deg := range []int{2, 3, 5} {
		for _, dim := range []int{2, 3, 8} {
			for _, n := range []int{64, 65, 71} {
				t.Run(fmt.Sprintf("deg=%d/d=%d/n=%d", deg, dim, n), func(t *testing.T) {
					m := randParityModel(rng, deg, dim)
					u := marginFrame(rng, n, dim)
					cold, served := coldParityCheck(t, m.Curve, m.Alpha, u)
					for _, scores := range [][]float64{cold, served} {
						edges := 0
						for _, s := range scores {
							if s == 0 || s == 1 {
								edges++
							}
						}
						if edges == 0 {
							t.Fatal("no bracket-miss rows landed exactly on s=0/1; widen the frame margin")
						}
					}
				})
			}
		}
	}
}

// TestColdPassEdgeRowsInterleaved pins the bracket-miss contract on a
// random cubic Newton curve: points outward along the end tangents,
// interleaved with interior rows over 66 rows, must publish exactly 0
// and 1.
func TestColdPassEdgeRowsInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	m := randParityModel(rng, 3, 3)
	d := m.Dim()
	f0 := m.Curve.Eval(0)
	f1 := m.Curve.Eval(1)
	der := m.Curve.Derivative()
	t0 := der.Eval(0)
	t1 := der.Eval(1)
	const n = 66
	u := frame.New(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			switch i % 3 {
			case 0:
				u.Set(i, j, f0[j]-2*t0[j]) // outward along the start tangent → s=0
			case 1:
				u.Set(i, j, f1[j]+2*t1[j]) // outward along the end tangent → s=1
			default:
				u.Set(i, j, rng.Float64())
			}
		}
	}
	cold, served := coldParityCheck(t, m.Curve, m.Alpha, u)
	for _, scores := range [][]float64{cold, served} {
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				if scores[i] != 0 {
					t.Fatalf("row %d: start-tangent row scored %.17g, want exactly 0", i, scores[i])
				}
			case 1:
				if scores[i] != 1 {
					t.Fatalf("row %d: end-tangent row scored %.17g, want exactly 1", i, scores[i])
				}
			default:
				// In-box rows may still legitimately clamp to an end node;
				// only the range is pinned here, parity covers their values.
				if scores[i] < 0 || scores[i] > 1 || math.IsNaN(scores[i]) {
					t.Fatalf("row %d: interior row scored %v", i, scores[i])
				}
			}
		}
	}
}

// TestProjectPassWarmMatchesProjectWarm: the fit's warm pass must publish
// exactly what a per-row projectWarm loop over a separate engine does —
// scores, residuals and the pass's warm-hit count — at every degree Fit
// accepts, from honest warm seeds and from adversarial ones that force the
// no-regression guard into its cold fallback.
func TestProjectPassWarmMatchesProjectWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for _, deg := range []int{3, 5, 2, 4, 6} {
		t.Run(fmt.Sprintf("newton/deg=%d", deg), func(t *testing.T) {
			const dim, n = 3, 71
			m := randParityModel(rng, deg, dim)
			u := marginFrame(rng, n, dim)
			eng := newEngine(m.Curve, defaultGridCells)
			ref := newEngine(m.Curve, defaultGridCells)

			// Honest warm seeds: the previous sweep's own scores.
			warm := make([]float64, n)
			projectPass(eng, m.Curve, u, warm, make([]float64, n), nil)
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					// Adversarial seeds: the mirrored score is usually in
					// the wrong basin, driving classification failures and
					// guarded cold fallbacks.
					for i := range warm {
						warm[i] = 1 - warm[i]
					}
				}
				ps, pr := make([]float64, n), make([]float64, n)
				hits := projectPass(eng, m.Curve, u, ps, pr, warm)
				var refHits int
				for i := 0; i < n; i++ {
					s, r2, hit := ref.projectWarm(u.Row(i), warm[i])
					if ps[i] != s {
						t.Fatalf("pass %d row %d: pass warm score %.17g, per-row %.17g", pass, i, ps[i], s)
					}
					if pr[i] != r2 {
						t.Fatalf("pass %d row %d: pass warm resid %.17g, per-row %.17g", pass, i, pr[i], r2)
					}
					if hit {
						refHits++
					}
				}
				if hits != refHits {
					t.Fatalf("pass %d: %d warm hits, per-row %d", pass, hits, refHits)
				}
				if pass == 0 && refHits == 0 {
					t.Fatal("honest warm seeds produced no warm hits")
				}
			}
		})
	}
}

// TestScoreFrameRangeCtxCancellation pins the cooperative cancellation
// contract of the cubic Newton kernel: a context done before the call
// stops before the first row, reports the rows it scored and leaves dst
// beyond them untouched, and a live context scores every row exactly as
// ScoreFrameRange does.
func TestScoreFrameRangeCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m := randParityModel(rng, 3, 3)
	const n = 4 * ctxPollRows
	f := frame.New(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			lo, hi := m.Norm.Min[j], m.Norm.Max[j]
			f.Set(i, j, lo+(hi-lo)*(rng.Float64()*1.6-0.3))
		}
	}
	want := make([]float64, n)
	m.Compile().ScoreFrameRange(want, f, 0, n)

	sc := m.Compile()
	got := make([]float64, n)
	for i := range got {
		got[i] = -1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The context is polled before every ctxPollRows rows, the
	// first included.
	k := sc.ScoreFrameRangeCtx(ctx, got, f, 0, n)
	if k != 0 {
		t.Fatalf("cancelled-before-start range scored %d of %d rows, want 0", k, n)
	}
	for i, v := range got {
		if i < k && v != want[i] {
			t.Fatalf("row %d: scored before the poll as %.17g, want %.17g", i, v, want[i])
		}
		if i >= k && v != -1 {
			t.Fatalf("row %d written past the %d rows a cancelled range reported", i, k)
		}
	}
	// The same scorer, reused after the cancelled call.
	if k := sc.ScoreFrameRangeCtx(context.Background(), got, f, 0, n); k != n {
		t.Fatalf("live range scored %d rows, want %d", k, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: ctx range %.17g vs ScoreFrameRange %.17g", i, got[i], want[i])
		}
	}
}

// TestColdPassBoundarySizes sweeps row counts around the cancellation
// poll interval, so every remainder shape of the poll loop runs, and down
// to a single row.
func TestColdPassBoundarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	alpha := order.MustDirection(1, -1, 1)
	xs, _ := genBezierCloud(rng, 3*ctxPollRows, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	full := m.data
	for _, n := range []int{
		ctxPollRows, 2 * ctxPollRows, // n % poll == 0
		1, ctxPollRows + 1, // n % poll == 1
		ctxPollRows - 1, 2*ctxPollRows - 1, // n % poll == poll−1
		2, 3, 4, 5, 6, 7, // tiny frames
	} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			coldParityCheck(t, m.Curve, m.Alpha, full.Slice(0, n))
		})
	}
	// A mid-frame range must agree with the same rows scored alone: every
	// row's projection is position-independent, so range boundaries cannot
	// leak into results.
	lo, hi := 17, 17+ctxPollRows+5
	sc := identityModel(m.Curve, m.Alpha).Compile()
	whole := make([]float64, full.N())
	sc.ScoreFrameRange(whole, full, lo, hi)
	sub := full.Slice(lo, hi)
	alone := make([]float64, sub.N())
	sc.ScoreFrameRange(alone, sub, 0, sub.N())
	for i := 0; i < sub.N(); i++ {
		if whole[lo+i] != alone[i] {
			t.Fatalf("range row %d differs from standalone projection", lo+i)
		}
	}
}

// TestScoreFrameRangeMatchesScore pins the serving batch path to per-row
// Scorer.Score (bit for bit) and to the oracle's contract on raw
// (unnormalised) rows, for the cubic kernel and the non-cubic engine.
func TestScoreFrameRangeMatchesScore(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cubic", Options{}},
		{"deg4", Options{Degree: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			alpha := order.MustDirection(1, 1, -1)
			xs, _ := genBezierCloud(rng, 300, alpha, 0.04)
			opts := tc.opts
			opts.Alpha = alpha
			m, err := Fit(xs, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Raw-space probes, including points outside the training box.
			probes := make([][]float64, 2*ctxPollRows+3)
			for i := range probes {
				p := make([]float64, len(alpha))
				for j := range p {
					p[j] = 3 * (rng.Float64() - 0.2)
				}
				probes[i] = p
			}
			f, err := frame.FromRows(probes)
			if err != nil {
				t.Fatal(err)
			}
			sc := m.Compile()
			batch := make([]float64, f.N())
			sc.ScoreFrameRange(batch, f, 0, f.N())
			per := m.Compile()
			oc := oracleCurve(m.Curve)
			for i, p := range probes {
				if s := per.Score(p); batch[i] != s {
					t.Fatalf("probe %d: batch %.17g vs Score %.17g", i, batch[i], s)
				}
				if err := oc.Project(unitRow(m, p)).Check(batch[i], m.gridCells); err != nil {
					t.Fatalf("probe %d: batch: %v", i, err)
				}
			}
		})
	}
}

// TestFitColdMatchesReference: a fit must publish scores and residuals
// that meet the oracle's contract on its final curve — the fit-level form
// of the projection contract. The published scores come from a cold
// projection of the final curve, however the iterations were warm-started.
func TestFitColdMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _ := genBezierCloud(rng, 200, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	oc := oracleCurve(m.Curve)
	for i, x := range xs {
		r := oc.Project(unitRow(m, x))
		if err := r.Check(m.Scores[i], m.gridCells); err != nil {
			t.Fatalf("row %d: published score: %v", i, err)
		}
		if d := r.DistAt(m.Scores[i]); math.Abs(m.ResidualsSq[i]-d) > 1e-12*(1+d) {
			t.Fatalf("row %d: published residual %.17g vs the oracle's D(s) %.17g", i, m.ResidualsSq[i], d)
		}
	}
}
