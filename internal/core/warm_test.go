package core

// Tests of the incremental projection subsystem: warm-vs-cold fit parity,
// deterministic parallel multi-start, shared-frame concurrency (exercised
// under the -race CI job), and the iteration-flat allocation contract of
// the fit loop.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

// TestFitWarmStartMatchesCold pins the warm-start convergence contract:
// across degrees, the warm-started fit must land within 1e-9 of the cold
// fit's final scores with a final objective no worse.
func TestFitWarmStartMatchesCold(t *testing.T) {
	cases := []struct {
		name string
		proj Projector
		deg  int
		seed int64
	}{
		{"newton", ProjectorNewton, 3, 12},
		{"newton-deg4", ProjectorNewton, 4, 14},
		{"newton-deg2", ProjectorNewton, 2, 15},
		{"newton-deg5", ProjectorNewton, 5, 16},
		{"newton-deg6", ProjectorNewton, 6, 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			alpha := order.MustDirection(1, 1, -1)
			xs, _ := genBezierCloud(rng, 300, alpha, 0.03)
			opts := Options{Alpha: alpha, Projector: tc.proj, Degree: tc.deg}
			warm, err := Fit(xs, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.NoWarmStart = true
			cold, err := Fit(xs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cold.Scores {
				if d := math.Abs(warm.Scores[i] - cold.Scores[i]); d > 1e-9 {
					t.Fatalf("score %d diverged by %g: warm %.17g cold %.17g",
						i, d, warm.Scores[i], cold.Scores[i])
				}
			}
			warmJ := sum(warm.ResidualsSq)
			coldJ := sum(cold.ResidualsSq)
			if warmJ > coldJ+1e-9*(1+coldJ) {
				t.Fatalf("warm objective %.17g worse than cold %.17g", warmJ, coldJ)
			}
		})
	}
}

// TestFitWarmStartQuinticUnaffected: the quintic projector takes no warm
// seed (exact root solving), so warm and cold fits must be bit-identical.
func TestFitWarmStartQuinticUnaffected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alpha := order.MustDirection(1, -1)
	xs, _ := genBezierCloud(rng, 120, alpha, 0.02)
	warm, err := Fit(xs, Options{Alpha: alpha, Projector: ProjectorQuintic})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Fit(xs, Options{Alpha: alpha, Projector: ProjectorQuintic, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Scores {
		if warm.Scores[i] != cold.Scores[i] {
			t.Fatalf("quintic score %d differs: %.17g vs %.17g", i, warm.Scores[i], cold.Scores[i])
		}
	}
}

// TestProjectWarmAgreesFromAnyStart: on the unimodal profiles a fitted
// monotone curve produces, a warm projection that validates its basin must
// settle on the same minimiser as the cold grid-seeded projection, whatever
// (even absurd) previous score it was seeded with; a seed whose basin fails
// validation must degrade to exactly the cold result (the internal
// fallback shares the cold code path, so bit-equality is required). It runs
// on fitted models of every degree, and on random monotone cubic clouds
// across dimensions, rows past the curve's ends included.
func TestProjectWarmAgreesFromAnyStart(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 60, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	fitted := make([][]float64, m.data.N())
	for i := range fitted {
		fitted[i] = m.data.Row(i)
	}
	t.Run("fitted/newton", func(t *testing.T) {
		checkWarmAgreesFromAnyStart(t, newEngine(m.Curve, m.opts), fitted)
	})
	// Other degrees take the collapsed-profile newtonRefine warm path and
	// fall back to projectSeeded instead of the cubic register kernel.
	for _, deg := range []int{2, 4, 5, 6} {
		t.Run(fmt.Sprintf("fitted-deg%d/newton", deg), func(t *testing.T) {
			md, err := Fit(xs, Options{Alpha: alpha, Degree: deg, MaxIter: 20})
			if err != nil {
				t.Fatal(err)
			}
			checkWarmAgreesFromAnyStart(t, newEngine(md.Curve, md.opts), fitted)
		})
	}

	for _, d := range []int{1, 2, 5, 8} {
		c := randMonotoneCubic(rng, d)
		rows := make([][]float64, 60)
		for i := range rows {
			// Latent parameters spill past [0, 1] so some rows project onto
			// a domain edge, where only the cold grid pass classifies them.
			rows[i] = c.Eval(-0.1 + 1.2*rng.Float64())
			for j := range rows[i] {
				rows[i][j] += 0.05 * rng.NormFloat64()
			}
		}
		t.Run(fmt.Sprintf("cloud/d=%d/newton", d), func(t *testing.T) {
			checkWarmAgreesFromAnyStart(t, newEngine(c, Options{}.withDefaults()), rows)
		})
	}
}

// checkWarmAgreesFromAnyStart seeds eng's warm projection of every row from
// a spread of starts and the cold answer itself: a validated warm result
// must be within 1e-9 of the cold projection, a fallback bit-equal to it.
func checkWarmAgreesFromAnyStart(t *testing.T, eng *engine, rows [][]float64) {
	t.Helper()
	fallbacks := 0
	for i, row := range rows {
		sCold, dCold := eng.project(row)
		for _, s0 := range []float64{0, 0.25, 0.5, 0.75, 1, sCold} {
			s, d, warm := eng.projectWarm(row, s0)
			if !warm {
				fallbacks++
				if s != sCold || d != dCold {
					t.Fatalf("row %d fallback from %.2f: got (%.17g, %.17g), cold (%.17g, %.17g)",
						i, s0, s, d, sCold, dCold)
				}
				continue
			}
			if math.Abs(s-sCold) > 1e-9 || math.Abs(d-dCold) > 1e-9 {
				t.Fatalf("row %d warm from %.2f: got (%.17g, %.17g), cold (%.17g, %.17g)",
					i, s0, s, d, sCold, dCold)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("expected some absurd warm seeds to fail basin validation")
	}
}

// TestNewtonRefineStopsAtFixpoint: on D(s) = ½(s − 0.6)², a start on the
// root takes a Newton step that rounds to zero. The refinement must return
// the start unchanged rather than bisect away from it and walk back.
func TestNewtonRefineStopsAtFixpoint(t *testing.T) {
	e := &engine{
		dc:  []float64{0.005, -0.1, 0.5, 0, 0, 0, 0},
		d1c: make([]float64, 6),
		d2c: make([]float64, 5),
	}
	e.fillDerivatives()
	if s := e.newtonRefine(0.5, 0.7, 0.6); s != 0.6 {
		t.Fatalf("newtonRefine from the root = %.17g, want 0.6", s)
	}
}

// TestCubicNewtonKernelStopsAtFixpoint: the cubic serving kernel's
// parabolic seed is exact on a quadratic profile, so its Newton tail starts
// on the root and must stop there.
func TestCubicNewtonKernelStopsAtFixpoint(t *testing.T) {
	if s, _ := cubicNewtonKernel(0.005, -0.1, 0.5, 0, 0, 0, 0, 32, true); s != 0.6 {
		t.Fatalf("cubicNewtonKernel on ½(s − 0.6)² = %.17g, want 0.6", s)
	}
}

// TestFitMultiStartDeterministicAcrossParallelism pins the multi-start
// contract: whatever the restart concurrency, the winning model's control
// points, scores, and iteration counts are bit-identical, because the
// restart inits are drawn serially up front and the winner scan is ordered.
func TestFitMultiStartDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 150, alpha, 0.05)
	f, err := frame.FromRows(xs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Alpha: alpha, Restarts: 5, Seed: 7}.withDefaults()
	serial, err := fitMultiStartN(f, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		parallel, err := fitMultiStartN(f, opts, par)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for r, p := range serial.Curve.Points {
			for j, v := range p {
				if parallel.Curve.Points[r][j] != v {
					t.Fatalf("par=%d: control point [%d][%d] differs: %.17g vs %.17g",
						par, r, j, parallel.Curve.Points[r][j], v)
				}
			}
		}
		for i := range serial.Scores {
			if serial.Scores[i] != parallel.Scores[i] {
				t.Fatalf("par=%d: score %d differs", par, i)
			}
		}
		if serial.Iterations != parallel.Iterations {
			t.Fatalf("par=%d: iterations differ (%d vs %d)", par, serial.Iterations, parallel.Iterations)
		}
	}
}

// TestFitMultiStartPublicPathDeterministic: the exported Fit with
// Restarts > 1 (which picks its own concurrency) must agree with the
// serial reference run for the same options.
func TestFitMultiStartPublicPathDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alpha := order.MustDirection(1, -1, 1)
	xs, _ := genBezierCloud(rng, 120, alpha, 0.04)
	// Workers -1 grants restart fan-out machine-wide (0 or 1 would keep
	// the public path fully serial, testing nothing concurrent).
	opts := Options{Alpha: alpha, Restarts: 4, Seed: 3, Workers: -1}
	pub, err := Fit(xs, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := frame.FromRows(xs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fitMultiStartN(f, opts.withDefaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Scores {
		if pub.Scores[i] != ref.Scores[i] {
			t.Fatalf("score %d differs: %.17g vs %.17g", i, pub.Scores[i], ref.Scores[i])
		}
	}
}

// TestFitMultiStartSharedFrameConcurrently drives concurrent restarts over
// one shared read-only frame together with inner projection workers. Its
// real assertion is the race detector: the core package runs under the
// go test -race CI job, so any unsynchronised access to the shared frame,
// the X matrix, or a pool engine fails there.
func TestFitMultiStartSharedFrameConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	alpha := order.MustDirection(1, 1)
	xs, _ := genBezierCloud(rng, 240, alpha, 0.05)
	m, err := Fit(xs, Options{Alpha: alpha, Restarts: 6, Workers: 2, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Scores) != len(xs) {
		t.Fatalf("scores length %d, want %d", len(m.Scores), len(xs))
	}
}

// TestFitAllocsFlatInIterations pins the "allocations flat in iteration
// count" contract for both updaters: extending the iteration budget must
// not add allocations, because every per-iteration buffer — pool engines,
// compiled coefficients, work matrices, eigen scratch, the exact step's
// faces and Anderson's history — is reused.
func TestFitAllocsFlatInIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 120, alpha, 0.08)
	for _, upd := range []Updater{UpdaterRichardson, UpdaterPseudoInverse} {
		t.Run(upd.String(), func(t *testing.T) {
			run := func(maxIter int) (allocs float64, iters int) {
				opts := Options{Alpha: alpha, Updater: upd, MaxIter: maxIter, Tol: 1e-300}
				var m *Model
				allocs = testing.AllocsPerRun(3, func() {
					var err error
					m, err = Fit(xs, opts)
					if err != nil {
						t.Fatal(err)
					}
				})
				return allocs, m.Iterations
			}
			shortAllocs, shortIters := run(5)
			longAllocs, longIters := run(60)
			if longIters <= shortIters {
				t.Skipf("fit stopped early (%d vs %d iterations); cannot measure slope", longIters, shortIters)
			}
			// One allocation of slack absorbs runtime noise; the real bound
			// is zero per extra iteration.
			if extra := longAllocs - shortAllocs; extra > 1 {
				t.Fatalf("%d extra iterations cost %.0f extra allocations (%.0f → %.0f); want 0",
					longIters-shortIters, extra, shortAllocs, longAllocs)
			}
		})
	}
}

// BenchmarkProjectAllWarm measures one warm score step against one cold
// one over the same pool, curve, and 4096-row frame — the per-iteration
// delta the warm-start subsystem buys. The warm pass also walks the
// fallback path for every row whose basin check fails, so a -benchtime=1x
// smoke run of this bench exercises both branches.
func BenchmarkProjectAllWarm(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _ := genBezierCloud(rng, 4096, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 8})
	if err != nil {
		b.Fatal(err)
	}
	opts := m.opts.withDefaults()
	pool := newProjPool(m.Curve, m.data, opts)
	defer pool.close()
	n := m.data.N()
	scores := make([]float64, n)
	resid := make([]float64, n)
	warm := make([]float64, n)
	pool.project(m.Curve, warm, resid, nil, true) // seed the warm cache
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.project(m.Curve, scores, resid, nil, true)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.project(m.Curve, scores, resid, warm, true)
		}
	})
}
