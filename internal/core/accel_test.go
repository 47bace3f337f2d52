package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/dataset"
	"rpcrank/internal/mat"
)

// TestFitConvergesAtServedOptions: at rpcd's fit options (three restarts,
// two workers, seed 1) every restart of the journals and countries fits at
// degrees 2 and 3 stops on |ΔJ| < ξ within the default MaxIter, and the
// fitted J is no worse than that of the Richardson fits the exact step
// replaced as the default (their J, rounded up at the seventh digit).
func TestFitConvergesAtServedOptions(t *testing.T) {
	cases := []struct {
		table   *dataset.Table
		deg     int
		richard float64 // J of the Richardson fit at the same options
	}{
		{dataset.Journals(), 2, 6.319935},
		{dataset.Journals(), 3, 5.793004},
		{dataset.Countries(), 2, 8.053142},
		{dataset.Countries(), 3, 1.529070},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/deg=%d", c.table.Name, c.deg), func(t *testing.T) {
			opts := Options{Alpha: c.table.Alpha, Degree: c.deg, Restarts: 3, Workers: 2, Seed: 1}.withDefaults()
			models, err := fitRestarts(c.table.Data, opts)
			if err != nil {
				t.Fatal(err)
			}
			best := math.Inf(1)
			for r, m := range models {
				if !m.Converged || m.Iterations > opts.MaxIter {
					t.Errorf("restart %d: %d iterations, converged %v", r, m.Iterations, m.Converged)
				}
				best = math.Min(best, sum(m.ResidualsSq))
			}
			if best > c.richard {
				t.Errorf("fitted J %.9f, Richardson's %.6f", best, c.richard)
			}
			m, err := FitFrame(c.table.Data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := sum(m.ResidualsSq); got != best {
				t.Errorf("FitFrame J %.17g, best restart %.17g", got, best)
			}
		})
	}
}

// boxCase is one exact-step problem: A and B from random scores and
// observations spread past the unit box, so that the minimiser has free
// coordinates and coordinates held at either bound, and in-box control
// points P with pinned end points.
func boxCase(rng *rand.Rand, d, k, n int) (A, B, P *mat.Dense) {
	scores := make([]float64, n)
	X := mat.Zeros(d, n)
	for i := range scores {
		scores[i] = rng.Float64()
		for j := 0; j < d; j++ {
			X.Set(j, i, 2*rng.Float64()-0.5)
		}
	}
	mz := make([]float64, (k+1)*n)
	bernsteinBasisInto(mz, bezier.BernsteinToMonomial(k), scores)
	MZ := mat.NewDense(k+1, n, mz)
	A = mat.GramInto(mat.Zeros(k+1, k+1), MZ)
	B = mat.MulABTInto(mat.Zeros(d, k+1), X, MZ)
	P = mat.Zeros(d, k+1)
	for j := 0; j < d; j++ {
		P.Set(j, k, 1)
		for r := 1; r < k; r++ {
			P.Set(j, r, 0.001+0.998*rng.Float64())
		}
	}
	return A, B, P
}

// TestBoxStepKKT holds the exact control-point step to the optimality
// conditions of its per-coordinate quadratic φ(q) = ½qᵀA_IIq − cᵀq over
// the box [ε, 1−ε]: the gradient vanishes in free coordinates, points into
// the box at held ones, and no feasible point — random ones, the box's
// vertices, and small moves from the answer — has a lower φ. Every degree
// Fit accepts is covered, and so are all three kinds of coordinate.
func TestBoxStepKKT(t *testing.T) {
	const eps = 1e-3
	rng := rand.New(rand.NewSource(2101))
	var free, lower, upper int
	for k := minDegree; k <= maxDegree; k++ {
		m := k - 1
		b := newBoxStep(k, eps)
		for trial := 0; trial < 20; trial++ {
			A, B, P := boxCase(rng, 3, k, 8+rng.Intn(60))
			G := mat.Zeros(P.Rows(), P.Cols())
			b.step(G, P, A, B)
			for j := 0; j < P.Rows(); j++ {
				if G.At(j, 0) != P.At(j, 0) || G.At(j, k) != P.At(j, k) {
					t.Fatalf("k=%d: end points moved", k)
				}
				q := make([]float64, m)
				c := make([]float64, m)
				for i := range q {
					q[i] = G.At(j, i+1)
					c[i] = B.At(j, i+1) - A.At(i+1, 0)*P.At(j, 0) - A.At(i+1, k)*P.At(j, k)
				}
				phi := func(x []float64) float64 {
					var s float64
					for i := range x {
						for l := range x {
							s += 0.5 * x[i] * A.At(i+1, l+1) * x[l]
						}
						s -= c[i] * x[i]
					}
					return s
				}
				scale := 1e-9 * (1 + A.At(1, 1))
				for i, qi := range q {
					g := -c[i]
					for l, ql := range q {
						g += A.At(i+1, l+1) * ql
					}
					switch {
					case qi < eps || qi > 1-eps:
						t.Fatalf("k=%d coordinate %d: q[%d] = %v outside the box", k, j, i, qi)
					case qi == eps:
						lower++
						if g < -scale {
							t.Errorf("k=%d: q[%d] held at ε with gradient %v < 0", k, i, g)
						}
					case qi == 1-eps:
						upper++
						if g > scale {
							t.Errorf("k=%d: q[%d] held at 1−ε with gradient %v > 0", k, i, g)
						}
					default:
						free++
						if math.Abs(g) > scale {
							t.Errorf("k=%d: free q[%d] has gradient %v", k, i, g)
						}
					}
				}
				// Brute force: nothing feasible beats the answer.
				best := phi(q)
				tol := 1e-12 * (1 + math.Abs(best))
				x := make([]float64, m)
				for v := 0; v < 1<<m; v++ {
					for i := range x {
						x[i] = eps
						if v&(1<<i) != 0 {
							x[i] = 1 - eps
						}
					}
					if phi(x) < best-tol {
						t.Errorf("k=%d: vertex %v beats the step: %v < %v", k, x, phi(x), best)
					}
				}
				for s := 0; s < 200; s++ {
					for i := range x {
						x[i] = eps + (1-2*eps)*rng.Float64()
						if s%2 == 1 {
							x[i] = min(max(q[i]+1e-3*rng.NormFloat64(), eps), 1-eps)
						}
					}
					if phi(x) < best-tol {
						t.Errorf("k=%d: %v beats the step: %v < %v", k, x, phi(x), best)
					}
				}
			}
		}
	}
	t.Logf("coordinates: %d free, %d at ε, %d at 1−ε", free, lower, upper)
	if free == 0 || lower == 0 || upper == 0 {
		t.Errorf("the cases did not cover every kind of coordinate: %d free, %d at ε, %d at 1−ε", free, lower, upper)
	}
}

// TestBoxStepKeepsPointsOnFlatProblem: with no interior score, A_II = 0 and
// every point of the box minimises; the step keeps the current points
// rather than jumping to a vertex.
func TestBoxStepKeepsPointsOnFlatProblem(t *testing.T) {
	const k, n = 3, 4
	scores := []float64{0, 0, 1, 1}
	mz := make([]float64, (k+1)*n)
	bernsteinBasisInto(mz, bezier.BernsteinToMonomial(k), scores)
	MZ := mat.NewDense(k+1, n, mz)
	X := mat.FromRows([][]float64{{0, 0, 1, 1}})
	A := mat.GramInto(mat.Zeros(k+1, k+1), MZ)
	B := mat.MulABTInto(mat.Zeros(1, k+1), X, MZ)
	P := mat.FromRows([][]float64{{0, 0.3, 0.6, 1}})
	G := mat.Zeros(1, k+1)
	newBoxStep(k, 1e-3).step(G, P, A, B)
	for r := 0; r <= k; r++ {
		if G.At(0, r) != P.At(0, r) {
			t.Errorf("point %d moved %v → %v", r, P.At(0, r), G.At(0, r))
		}
	}
}

// TestAndersonSolvesLinearMap: on an affine contraction g(x) = Mx + v
// with M symmetric and 3 distinct eigenvalues, Anderson mixing with memory
// 3 reaches the fixed point (to the rounding of its normal equations) once
// it holds 3 differences, as
// GMRES would; the plain iteration is still far from it.
func TestAndersonSolvesLinearMap(t *testing.T) {
	const n = 6
	eig := []float64{0.9, 0.9, 0.5, 0.5, 0.99, 0.99}
	v := []float64{1, -2, 0.5, 3, -1, 2}
	g := func(dst, x []float64) {
		for i := range x {
			dst[i] = eig[i]*x[i] + v[i]
		}
	}
	fix := make([]float64, n)
	for i := range fix {
		fix[i] = v[i] / (1 - eig[i])
	}
	a := newAnderson(n)
	x := make([]float64, n)
	gx := make([]float64, n)
	plain := make([]float64, n)
	for it := 0; it < 4; it++ {
		g(gx, x)
		a.push(x, gx)
		g(plain, plain)
		if !a.extrapolate(x) {
			copy(x, gx)
		}
	}
	var errAA, errPlain, size float64
	for i := range x {
		errAA = math.Max(errAA, math.Abs(x[i]-fix[i]))
		errPlain = math.Max(errPlain, math.Abs(plain[i]-fix[i]))
		size = math.Max(size, math.Abs(fix[i]))
	}
	if errAA > 1e-9*size {
		t.Errorf("Anderson iterate is %v from the fixed point (plain iteration %v)", errAA, errPlain)
	}
	if errPlain < 1 {
		t.Errorf("plain iteration already at %v; the test shows nothing", errPlain)
	}
	a.reset()
	if a.extrapolate(x) {
		t.Error("extrapolated with no history after reset")
	}
}

// TestFitTelemetryCountsAdoptedIterates: the J of the iterates the fit
// adopts, read from FitDiag.Trace, falls at every adoption, and a rejected
// extrapolation appears in the trace with Accepted false and did not lower
// J by ξ. Which iterations take a control step is not in the trace:
// TestFitUpdateSkippedOnLastIteration and TestGoldenFits guard it.
func TestFitTelemetryCountsAdoptedIterates(t *testing.T) {
	ds := dataset.Journals()
	for _, upd := range []Updater{UpdaterPseudoInverse, UpdaterRichardson} {
		t.Run(upd.String(), func(t *testing.T) {
			m, err := FitFrame(ds.Data, Options{Alpha: ds.Alpha, Updater: upd})
			if err != nil {
				t.Fatal(err)
			}
			trace := m.FitDiag.Trace
			best := math.Inf(1)
			adopted, rejected := 0, 0
			for i, it := range trace {
				switch {
				case it.Accepted:
					if it.Objective >= best {
						t.Fatalf("iteration %d adopted J %v, not below the best %v", i, it.Objective, best)
					}
					best = it.Objective
					adopted++
				case i < len(trace)-1:
					// Only a rejected extrapolation lets the fit go on,
					// and it missed the best J by less than ξ (default Tol).
					if best-it.Objective >= 1e-8 {
						t.Fatalf("iteration %d rejected J %v, ξ below the best %v", i, it.Objective, best)
					}
					rejected++
				}
			}
			if upd == UpdaterPseudoInverse && rejected < 2 {
				t.Errorf("the safeguard rejected %d iterates; the test needs a rejected extrapolation", rejected)
			}
			t.Logf("%d iterations, %d adopted, %d rejected extrapolations", len(trace), adopted, rejected)
		})
	}
}
