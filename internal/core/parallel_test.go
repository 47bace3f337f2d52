package core

import (
	"math/rand"
	"testing"

	"rpcrank/internal/order"
)

// TestParallelFitBitIdentical: at every degree Fit accepts, a
// three-restart fit is bit-identical whatever the projection workers and
// the restart concurrency they grant — curve, scores, and the winner's
// trace.
func TestParallelFitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 400, alpha, 0.03)
	for k := minDegree; k <= maxDegree; k++ {
		opts := Options{Alpha: alpha, Degree: k, Restarts: 3, MaxIter: 60, Workers: 1}
		serial, err := Fit(xs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, -1} {
			opts.Workers = workers
			par, err := Fit(xs, opts)
			if err != nil {
				t.Fatalf("degree %d workers=%d: %v", k, workers, err)
			}
			for r, p := range serial.Curve.Points {
				for j, v := range p {
					if par.Curve.Points[r][j] != v {
						t.Fatalf("degree %d workers=%d: control point [%d][%d] %.17g vs %.17g",
							k, workers, r, j, par.Curve.Points[r][j], v)
					}
				}
			}
			for i := range serial.Scores {
				if serial.Scores[i] != par.Scores[i] {
					t.Fatalf("degree %d workers=%d: score %d differs: %.17g vs %.17g",
						k, workers, i, serial.Scores[i], par.Scores[i])
				}
			}
			st, pt := serial.FitDiag.Trace, par.FitDiag.Trace
			if len(pt) != len(st) || par.FitDiag.Restart != serial.FitDiag.Restart {
				t.Fatalf("degree %d workers=%d: winner %d after %d iterations, serial %d after %d",
					k, workers, par.FitDiag.Restart, len(pt), serial.FitDiag.Restart, len(st))
			}
			for i := range st {
				if pt[i].Objective != st[i].Objective || pt[i].Accepted != st[i].Accepted {
					t.Fatalf("degree %d workers=%d: iteration %d %+v, serial %+v", k, workers, i, pt[i], st[i])
				}
			}
		}
	}
}

func TestParallelSmallInputFallsBackToSerial(t *testing.T) {
	// Tiny inputs must not spawn goroutine stripes smaller than the data.
	alpha := order.MustDirection(1, 1)
	xs := [][]float64{{0, 0}, {0.3, 0.4}, {1, 1}}
	m, err := Fit(xs, Options{Alpha: alpha, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Scores) != 3 {
		t.Fatalf("scores length %d", len(m.Scores))
	}
}

func BenchmarkProjectAllSerialVsParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(502))
	alpha := order.MustDirection(1, 1, -1, -1)
	xs, _ := genBezierCloud(rng, 4096, alpha, 0.02)
	m, err := Fit(xs, Options{Alpha: alpha, MaxIter: 1})
	if err != nil {
		b.Fatal(err)
	}
	scores := make([]float64, len(xs))
	resid := make([]float64, len(xs))
	for _, workers := range []int{1, 4, -1} {
		name := "serial"
		if workers == 4 {
			name = "workers4"
		} else if workers == -1 {
			name = "allcpus"
		}
		b.Run(name, func(b *testing.B) {
			pool := newProjPool(m.Curve, m.data, Options{Alpha: alpha, Workers: workers}.withDefaults())
			defer pool.close()
			for i := 0; i < b.N; i++ {
				pool.project(m.Curve, scores, resid, nil, true)
			}
		})
	}
}
