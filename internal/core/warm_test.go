package core

// Tests of the incremental projection subsystem: warm-vs-cold projection
// parity, deterministic parallel multi-start, shared-frame concurrency
// (exercised under the -race CI job), and the iteration-flat allocation
// contract of the fit loop.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rpcrank/internal/dataset"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

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
		checkWarmAgreesFromAnyStart(t, newEngine(m.Curve, m.gridCells), fitted)
	})
	// Other degrees take the collapsed-profile newtonRefine warm path and
	// fall back to projectSeeded instead of the cubic register kernel.
	for _, deg := range []int{2, 4, 5, 6} {
		t.Run(fmt.Sprintf("fitted-deg%d/newton", deg), func(t *testing.T) {
			md, err := Fit(xs, Options{Alpha: alpha, Degree: deg, MaxIter: 20})
			if err != nil {
				t.Fatal(err)
			}
			checkWarmAgreesFromAnyStart(t, newEngine(md.Curve, md.gridCells), fitted)
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
			checkWarmAgreesFromAnyStart(t, newEngine(c, defaultGridCells), rows)
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
	p := profile{n: 7}
	copy(p.dc[:], []float64{0.005, -0.1, 0.5})
	p.derive()
	if s := p.newtonRefine(0.5, 0.7, 0.6); s != 0.6 {
		t.Fatalf("newtonRefine from the root = %.17g, want 0.6", s)
	}
}

// TestCubicNewtonKernelStopsAtFixpoint: the cubic serving kernel's
// parabolic seed is exact on a quadratic profile, so its Newton tail starts
// on the root and must stop there.
func TestCubicNewtonKernelStopsAtFixpoint(t *testing.T) {
	g := newCubicGrid(32)
	g.set([]float64{0, 0, 0, 0, 0, 0, 0})
	if s, _ := cubicNewtonKernel(g, 0.005, -0.1, 0.5, 0, true); s != 0.6 {
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
	serial, err := fitMultiStart(f, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		parallel, err := fitMultiStart(f, opts, par)
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

// TestSingleStartFitIsRestartZero pins the one fit driver: a fit with
// Restarts 0 or 1 runs restart 0 of the multi-start driver alone, at every
// Workers width. All six variants of each fit must save the same rule
// bytes and report the same scores, iteration count and fit telemetry
// (stage times aside).
func TestSingleStartFitIsRestartZero(t *testing.T) {
	for _, table := range []*dataset.Table{dataset.Journals(), dataset.Countries()} {
		for deg := 2; deg <= 6; deg++ {
			var ref *Model
			var refSave []byte
			for _, workers := range []int{0, 1, 2} {
				for _, restarts := range []int{0, 1} {
					name := fmt.Sprintf("%s deg=%d workers=%d restarts=%d", table.Name, deg, workers, restarts)
					m, err := FitFrame(table.Data, Options{Alpha: table.Alpha, Degree: deg, Workers: workers, Restarts: restarts, Seed: 2})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var buf bytes.Buffer
					if err := m.Save(&buf); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					diag := *m.FitDiag
					diag.Stages = FitStageNanos{}
					if diag.Restart != 0 || diag.Restarts != 1 {
						t.Fatalf("%s: restart %d of %d, want 0 of 1", name, diag.Restart, diag.Restarts)
					}
					if ref == nil {
						ref, refSave = m, buf.Bytes()
						ref.FitDiag = &diag
						continue
					}
					if !bytes.Equal(buf.Bytes(), refSave) {
						t.Fatalf("%s: saved rule differs", name)
					}
					for i, s := range ref.Scores {
						if m.Scores[i] != s {
							t.Fatalf("%s: score %d = %.17g, want %.17g", name, i, m.Scores[i], s)
						}
					}
					if m.Iterations != ref.Iterations {
						t.Fatalf("%s: %d iterations, want %d", name, m.Iterations, ref.Iterations)
					}
					if !reflect.DeepEqual(diag, *ref.FitDiag) {
						t.Fatalf("%s: fit telemetry differs", name)
					}
				}
			}
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
	ref, err := fitMultiStart(f, opts.withDefaults(), 1)
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
// not add allocations, because every per-iteration buffer — the pool's
// engine and compiled coefficients, work matrices, eigen scratch, the exact step's
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
	pool := newProjPool(m.Curve, m.data, 0)
	defer pool.close()
	n := m.data.N()
	scores := make([]float64, n)
	resid := make([]float64, n)
	warm := make([]float64, n)
	pool.project(m.Curve, warm, resid, nil) // seed the warm cache
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.project(m.Curve, scores, resid, nil)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.project(m.Curve, scores, resid, warm)
		}
	})
}
