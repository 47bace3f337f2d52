package bezier

import (
	"math"
	"testing"
)

func TestBernsteinToMonomialCubicMatchesEq15(t *testing.T) {
	got := BernsteinToMonomial(3)
	want := eq15M
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got[r][c] != want[r][c] {
				t.Fatalf("M3[%d][%d] = %v, want %v", r, c, got[r][c], want[r][c])
			}
		}
	}
}

func TestBernsteinToMonomialEvaluates(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		m := BernsteinToMonomial(k)
		for _, s := range []float64{0, 0.2, 0.5, 0.8, 1} {
			z := monomials(k, s)
			for r := 0; r <= k; r++ {
				var viaM float64
				for c := 0; c <= k; c++ {
					viaM += m[r][c] * z[c]
				}
				if want := Bernstein(k, r, s); math.Abs(viaM-want) > 1e-12 {
					t.Fatalf("k=%d r=%d s=%v: monomial %v vs Bernstein %v", k, r, s, viaM, want)
				}
			}
		}
	}
}
