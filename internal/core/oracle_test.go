package core

// The differential harness: every path that produces a fitted or served
// score — Model.Score, Scorer.Score, the fit's cold pass (with
// Scorer.ScoreFrameRange), projectWarm seeded at the
// oracle's minimiser, and bare engines — held to internal/oracle, which
// shares no code with any of them, under the contract of
// oracle.Result.Check, plus Proposition 1 on dominated pairs.
// The HTTP and forwarded-hop paths are held to the same oracle in
// internal/server.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/dataset"
	"rpcrank/internal/frame"
	"rpcrank/internal/oracle"
	"rpcrank/internal/order"
)

// oracleCurve tabulates c for the oracle at its default resolution.
func oracleCurve(c *bezier.Curve) *oracle.Curve {
	return oracle.New(c.Points, oracle.DefaultCells)
}

// oracleRows projects every row of u (normalised space) through the oracle.
func oracleRows(c *bezier.Curve, u *frame.Frame) []*oracle.Result {
	oc := oracleCurve(c)
	refs := make([]*oracle.Result, u.N())
	for i := range refs {
		refs[i] = oc.Project(u.Row(i))
	}
	return refs
}

// unitRow maps raw row x into m's unit box, (x − min)/(max − min) per
// attribute.
func unitRow(m *Model, x []float64) []float64 {
	u := make([]float64, len(x))
	for j, v := range x {
		u[j] = (v - m.Norm.Min[j]) / (m.Norm.Max[j] - m.Norm.Min[j])
	}
	return u
}

// rawRow maps unit-box row u back to m's raw attribute space.
func rawRow(m *Model, u []float64) []float64 {
	x := make([]float64, len(u))
	for j, v := range u {
		x[j] = m.Norm.Min[j] + v*(m.Norm.Max[j]-m.Norm.Min[j])
	}
	return x
}

// checkModelPaths holds every projection path of m to the oracle on the
// normalised rows of u, and returns how many rows are near ties at m's
// grid (rows where clause (b) of the contract does not apply).
func checkModelPaths(t *testing.T, m *Model, u *frame.Frame) (ties int) {
	t.Helper()
	const cells = defaultGridCells
	refs := oracleRows(m.Curve, u)
	h := 1 / float64(cells)
	for _, r := range refs {
		if r.NearTie(r.M * h * h / 4) {
			ties++
		}
	}

	sc := m.Compile()
	for i, r := range refs {
		x := rawRow(m, u.Row(i))
		if err := r.Check(m.Score(x), cells); err != nil {
			t.Fatalf("row %d: Model.Score: %v", i, err)
		}
		if err := r.Check(sc.Score(x), cells); err != nil {
			t.Fatalf("row %d: Scorer.Score: %v", i, err)
		}
	}

	checkColdPaths(t, refs, m.Curve, m.Alpha, u)
	e := newEngine(m.Curve, cells)
	for i, r := range refs {
		s, d := e.project(u.Row(i))
		if err := r.Check(s, cells); err != nil {
			t.Fatalf("engine row %d: %v", i, err)
		}
		if want := r.DistAt(s); math.Abs(d-want) > 1e-12*(1+want) {
			t.Fatalf("engine row %d: distance %.17g vs the oracle's D(s) %.17g", i, d, want)
		}
		s, d, _ = e.projectWarm(u.Row(i), r.S)
		if err := r.Check(s, cells); err != nil {
			t.Fatalf("projectWarm row %d (seed %.17g): %v", i, r.S, err)
		}
		if want := r.DistAt(s); math.Abs(d-want) > 1e-12*(1+want) {
			t.Fatalf("projectWarm row %d: distance %.17g vs the oracle's D(s) %.17g", i, d, want)
		}
	}
	return ties
}

// checkProp1 checks Proposition 1 on pairs in and out of m's unit box: for
// y drawn from [−0.3, 1.3]^d and x = y + α∘δ with every δ_j in (0, 0.5],
// x strictly dominates y along α, so no path may score x below y. The
// bare engine, Scorer.Score and Model.Score are checked.
func checkProp1(t *testing.T, rng *rand.Rand, m *Model, pairs int) {
	t.Helper()
	e := newEngine(m.Curve, defaultGridCells)
	sc := m.Compile()
	d := m.Dim()
	uy, ux := make([]float64, d), make([]float64, d)
	for p := 0; p < pairs; p++ {
		for j := range uy {
			uy[j] = -0.3 + 1.6*rng.Float64()
			ux[j] = uy[j] + m.Alpha[j]*(1e-3+0.5*rng.Float64())
		}
		sx, _ := e.project(ux)
		sy, _ := e.project(uy)
		if sx < sy {
			t.Fatalf("Prop. 1, engine: s(x)=%.17g < s(y)=%.17g for x=%v dominating y=%v", sx, sy, ux, uy)
		}
		x, y := rawRow(m, ux), rawRow(m, uy)
		if sx, sy := sc.Score(x), sc.Score(y); sx < sy {
			t.Fatalf("Prop. 1, Scorer.Score: s(x)=%.17g < s(y)=%.17g for x=%v dominating y=%v", sx, sy, x, y)
		}
		if sx, sy := m.Score(x), m.Score(y); sx < sy {
			t.Fatalf("Prop. 1, Model.Score: s(x)=%.17g < s(y)=%.17g for x=%v dominating y=%v", sx, sy, x, y)
		}
	}
}

// TestOracleDifferentialFitted runs the harness on the journals and
// countries models at degrees 2–4, fitted as rpcd fits them (Restarts 3),
// over their training rows plus off-sample probes in [−0.3, 1.3]^d.
func TestOracleDifferentialFitted(t *testing.T) {
	for _, tab := range []*dataset.Table{dataset.Journals(), dataset.Countries()} {
		for deg := 2; deg <= 4; deg++ {
			t.Run(fmt.Sprintf("%s/deg=%d", tab.Name, deg), func(t *testing.T) {
				m, err := FitFrame(tab.Data, Options{Alpha: tab.Alpha, Degree: deg, Restarts: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !m.StrictlyMonotone() {
					t.Fatal("fitted curve is not strictly monotone")
				}
				rng := rand.New(rand.NewSource(int64(300 + deg)))
				d := m.Dim()
				probes := marginFrame(rng, 200, d)
				u := frame.WithCapacity(d, m.data.N()+probes.N())
				for i := 0; i < m.data.N(); i++ {
					u.AppendRow(m.data.Row(i))
				}
				for i := 0; i < probes.N(); i++ {
					u.AppendRow(probes.Row(i))
				}
				ties := checkModelPaths(t, m, u)
				checkProp1(t, rng, m, 500)
				t.Logf("%d rows, %d near ties", u.N(), ties)
			})
		}
	}
}

// TestOracleDifferentialRandom runs the harness on random monotone control
// polygons at degrees 2–6 (every degree Fit accepts) and
// d ∈ {1, 2, 3, 5, 8, 16}, with rows in [−0.3, 1.3]^d: interior basins,
// rows past the curve's ends and near ties.
func TestOracleDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for deg := 2; deg <= 6; deg++ {
		for _, d := range []int{1, 2, 3, 5, 8, 16} {
			m := randParityModel(rng, deg, d)
			u := marginFrame(rng, 300, d)
			seed := rng.Int63()
			t.Run(fmt.Sprintf("deg=%d/d=%d", deg, d), func(t *testing.T) {
				ties := checkModelPaths(t, m, u)
				checkProp1(t, rand.New(rand.NewSource(seed)), m, 500)
				t.Logf("%d rows, %d near ties", u.N(), ties)
			})
		}
	}
}

// TestOracleNearTieRow runs the harness on one cubic row whose profile has
// two basins within M·h²/4 of each other (an interior minimum near
// s = 0.968 and the end s = 1). The seed bracket around node 31/32 holds
// both, so its classification misses and the grid-seeded engines publish
// the node itself: clause (b) exempts the row, but every path must still
// meet clause (a).
func TestOracleNearTieRow(t *testing.T) {
	c := bezier.MustNew([][]float64{{0, 0}, {0.3365, 0.8843}, {0.9030, 0.9392}, {1, 1}})
	m := identityModel(c, order.MustDirection(1, 1))
	u := frame.MustFromRows([][]float64{{0.9362, 1.1036}})
	if ties := checkModelPaths(t, m, u); ties != 1 {
		t.Fatalf("row is not a near tie at a %d-cell grid", defaultGridCells)
	}
}

// farModels returns the journals and countries fits at degrees 2–6, as
// rpcd fits them, and random monotone models at the same degrees, with
// their names.
func farModels(t *testing.T) ([]*Model, []string) {
	t.Helper()
	var models []*Model
	var names []string
	for _, tab := range []*dataset.Table{dataset.Journals(), dataset.Countries()} {
		for deg := 2; deg <= 6; deg++ {
			m, err := FitFrame(tab.Data, Options{Alpha: tab.Alpha, Degree: deg, Restarts: 3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, m)
			names = append(names, fmt.Sprintf("%s/deg=%d", tab.Name, deg))
		}
	}
	rng := rand.New(rand.NewSource(23))
	for deg := 2; deg <= 6; deg++ {
		for _, d := range []int{1, 3, 8} {
			models = append(models, randParityModel(rng, deg, d))
			names = append(names, fmt.Sprintf("random/deg=%d/d=%d", deg, d))
		}
	}
	return models, names
}

// TestScoreAtTheClampBoundMeetsContract holds Scorer.Score to the oracle on
// rows whose coordinates lie far outside the training box, 1e300 past
// either end, mixed with coordinates inside it: the scorer projects the
// row clamped to [−clampMargin, 1+clampMargin], and so does the oracle.
func TestScoreAtTheClampBoundMeetsContract(t *testing.T) {
	models, names := farModels(t)
	rng := rand.New(rand.NewSource(29))
	for mi, m := range models {
		sc := m.Compile()
		oc := oracleCurve(m.Curve)
		d := m.Dim()
		u, x := make([]float64, d), make([]float64, d)
		for r := 0; r < 300; r++ {
			for j := range u {
				lo, span := m.Norm.Min[j], m.Norm.Max[j]-m.Norm.Min[j]
				switch rng.Intn(3) {
				case 0:
					u[j], x[j] = -clampMargin, lo-1e300
				case 1:
					u[j], x[j] = 1+clampMargin, lo+span+1e300
				default:
					x[j] = lo + rng.Float64()*span
					u[j] = (x[j] - lo) / span
				}
			}
			if err := oc.Project(u).Check(sc.Score(x), m.gridCells); err != nil {
				t.Fatalf("%s: row %v (clamped %v): %v", names[mi], x, u, err)
			}
		}
	}
}

// TestProp1ForFarShifts: a row shifted along α by 10^e, e = 0 … 300,
// strictly dominates the row itself, so it must score at least as high
// (Proposition 1), however far outside the training box the shift takes
// it. The journals and countries fits and random monotone curves are
// checked at degrees 2–6, on training rows and random rows in the box.
func TestProp1ForFarShifts(t *testing.T) {
	models, names := farModels(t)
	rng := rand.New(rand.NewSource(31))
	for mi, m := range models {
		sc := m.Compile()
		d := m.Dim()
		y, z := make([]float64, d), make([]float64, d)
		for r := 0; r < 40; r++ {
			if m.data != nil && r < 20 {
				copy(y, rawRow(m, m.data.Row(rng.Intn(m.data.N()))))
			} else {
				for j := range y {
					y[j] = m.Norm.Min[j] + rng.Float64()*(m.Norm.Max[j]-m.Norm.Min[j])
				}
			}
			base := sc.Score(y)
			for e := 0; e <= 300; e++ {
				shift := math.Pow(10, float64(e))
				for j := range z {
					z[j] = y[j] + m.Alpha[j]*shift
				}
				if s := sc.Score(z); s < base {
					t.Fatalf("%s: row %v shifted 1e%d along α scores %.17g, below its own %.17g", names[mi], y, e, s, base)
				}
			}
		}
	}
}
