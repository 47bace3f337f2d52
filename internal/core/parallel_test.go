package core

import (
	"math/rand"
	"testing"

	"rpcrank/internal/order"
)

func TestParallelFitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	alpha := order.MustDirection(1, 1, -1)
	xs, _ := genBezierCloud(rng, 400, alpha, 0.03)
	serial, err := Fit(xs, Options{Alpha: alpha, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, -1} {
		par, err := Fit(xs, Options{Alpha: alpha, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial.Scores {
			if serial.Scores[i] != par.Scores[i] {
				t.Fatalf("workers=%d: score %d differs: %.17g vs %.17g",
					workers, i, serial.Scores[i], par.Scores[i])
			}
		}
		if serial.Iterations != par.Iterations {
			t.Errorf("workers=%d: iteration count differs (%d vs %d)",
				workers, serial.Iterations, par.Iterations)
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
				pool.project(m.Curve, scores, resid, nil)
			}
		})
	}
}
