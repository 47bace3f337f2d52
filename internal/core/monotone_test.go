package core

import (
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/order"
)

// TestStrictlyMonotoneCatchesDipBetweenSamples: a degree-4 curve whose
// first coordinate falls by ~7.6e-12 between two of 512 evenly spaced
// samples, where every sample still increases, must not certify.
//
// The coordinate is g(s) = (s−a)³ − 3δ²s, which falls by 4δ³ on
// (a−δ, a+δ), elevated to degree 4 and normalised to run from 0 to 1. With
// a = 100.5/512 the dip sits between samples 100 and 101.
func TestStrictlyMonotoneCatchesDipBetweenSamples(t *testing.T) {
	const a, delta = 100.5 / 512, 1e-4
	// Monomial coefficients of g, then its cubic Bernstein coefficients
	// b_r = Σ_{i≤r} C(r,i)/C(3,i)·m_i.
	m := []float64{-a * a * a, 3*a*a - 3*delta*delta, -3 * a, 1}
	var b [4]float64
	for r := range b {
		for i := 0; i <= r; i++ {
			b[r] += bezier.Binomial(r, i) / bezier.Binomial(3, i) * m[i]
		}
	}
	q := elevate(b[:])
	pts := make([][]float64, 5)
	for i := range pts {
		pts[i] = []float64{(q[i] - q[0]) / (q[4] - q[0]), float64(i) / 4}
	}
	curve := bezier.MustNew(pts)

	fall := curve.Eval(a - delta)[0] - curve.Eval(a + delta)[0]
	if fall < 7e-12 || fall > 8e-12 {
		t.Fatalf("curve falls by %.3g on (a−δ, a+δ), want ~7.6e-12", fall)
	}
	prev := curve.Eval(0)
	for i := 1; i <= 512; i++ {
		cur := curve.Eval(float64(i) / 512)
		if cur[0] <= prev[0] || cur[1] <= prev[1] {
			t.Fatalf("sample %d does not increase: the dip should hide between samples", i)
		}
		prev = cur
	}

	model := &Model{Curve: curve, Alpha: order.MustDirection(1, 1)}
	if model.StrictlyMonotone() {
		t.Fatal("a curve that falls between samples certified as strictly monotone")
	}
}

// elevate raises the degree of one coordinate's Bernstein coefficients b
// (degree k) by one: q_i = (i/(k+1))·b_{i−1} + (1 − i/(k+1))·b_i.
func elevate(b []float64) []float64 {
	k := len(b) - 1
	q := make([]float64, k+2)
	for i := range q {
		t := float64(i) / float64(k+1)
		if i > 0 {
			q[i] += t * b[i-1]
		}
		if i <= k {
			q[i] += (1 - t) * b[i]
		}
	}
	return q
}

// TestElevateDegreePreservesCurve: the elevated coefficients trace the
// same polynomial, so the dip test's degree-4 curve is the cubic g.
func TestElevateDegreePreservesCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		b := make([]float64, 4)
		for r := range b {
			b[r] = rng.Float64()
		}
		q := elevate(b)
		if len(q) != 5 {
			t.Fatalf("elevated degree = %d, want 4", len(q)-1)
		}
		cubic, quartic := bezier.MustNew(column(b)), bezier.MustNew(column(q))
		for _, s := range []float64{0, 0.2, 0.5, 0.85, 1} {
			if a, e := cubic.Eval(s)[0], quartic.Eval(s)[0]; math.Abs(a-e) > 1e-12 {
				t.Errorf("trial %d s=%v: original %v vs elevated %v", trial, s, a, e)
			}
		}
	}
}

// column makes a one-dimensional control polygon from coefficients.
func column(vs []float64) [][]float64 {
	pts := make([][]float64, len(vs))
	for i, v := range vs {
		pts[i] = []float64{v}
	}
	return pts
}
