package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rpcrank/internal/order"
)

// TestParallelFitBitIdentical: a fit is bit-identical to the serial fit
// (Workers 1) whatever number of restarts Options.Workers lets run at once
// — curve, scores, and the winner's trace. Three restarts run at every
// degree Fit accepts on widths 2, 4 and machine-wide; at Workers 2, one
// restart (width above Restarts) and five (width below Restarts) run too.
func TestParallelFitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	alpha := order.MustDirection(1, 1, -1)
	cloud, _ := genBezierCloud(rng, 400, alpha, 0.03)
	type fitCase struct {
		xs      [][]float64
		opts    Options
		workers []int
	}
	var cases []fitCase
	for k := minDegree; k <= maxDegree; k++ {
		cases = append(cases, fitCase{cloud, Options{Alpha: alpha, Degree: k, Restarts: 3, MaxIter: 60}, []int{2, 4, -1}})
	}
	for _, restarts := range []int{1, 5} {
		cases = append(cases, fitCase{cloud, Options{Alpha: alpha, Restarts: restarts, MaxIter: 60}, []int{2}})
	}

	for _, c := range cases {
		opts := c.opts
		opts.Workers = 1
		serial, err := Fit(c.xs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range c.workers {
			name := fmt.Sprintf("n=%d degree=%d restarts=%d workers=%d", len(c.xs), serial.Curve.Degree(), opts.Restarts, workers)
			opts.Workers = workers
			par, err := Fit(c.xs, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for r, p := range serial.Curve.Points {
				for j, v := range p {
					if par.Curve.Points[r][j] != v {
						t.Fatalf("%s: control point [%d][%d] %.17g vs %.17g",
							name, r, j, par.Curve.Points[r][j], v)
					}
				}
			}
			if len(par.Scores) != len(c.xs) {
				t.Fatalf("%s: %d scores for %d rows", name, len(par.Scores), len(c.xs))
			}
			for i := range serial.Scores {
				if serial.Scores[i] != par.Scores[i] {
					t.Fatalf("%s: score %d differs: %.17g vs %.17g",
						name, i, serial.Scores[i], par.Scores[i])
				}
			}
			st, pt := serial.FitDiag.Trace, par.FitDiag.Trace
			if len(pt) != len(st) || par.FitDiag.Restart != serial.FitDiag.Restart {
				t.Fatalf("%s: winner %d after %d iterations, serial %d after %d",
					name, par.FitDiag.Restart, len(pt), serial.FitDiag.Restart, len(st))
			}
			for i := range st {
				if pt[i] != st[i] {
					t.Fatalf("%s: iteration %d %+v, serial %+v", name, i, pt[i], st[i])
				}
			}
		}
	}
}

// TestParallelSmallInputFallsBackToSerial: a width far above the rows and
// restarts of a tiny table still fits, and scores every row exactly as the
// serial fit does.
func TestParallelSmallInputFallsBackToSerial(t *testing.T) {
	alpha := order.MustDirection(1, 1)
	xs := [][]float64{{0, 0}, {0.3, 0.4}, {1, 1}}
	serial, err := Fit(xs, Options{Alpha: alpha, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(xs, Options{Alpha: alpha, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Scores) != 3 {
		t.Fatalf("scores length %d", len(m.Scores))
	}
	for i := range serial.Scores {
		if m.Scores[i] != serial.Scores[i] {
			t.Fatalf("score %d differs: %.17g vs %.17g", i, m.Scores[i], serial.Scores[i])
		}
	}
}
