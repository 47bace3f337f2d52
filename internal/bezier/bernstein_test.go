package bezier

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{3, 0, 1}, {3, 1, 3}, {3, 2, 3}, {3, 3, 1},
		{4, 2, 6}, {10, 5, 252}, {20, 10, 184756},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Binomial(-1, 0) },
		func() { Binomial(2, 3) },
		func() { Binomial(2, -1) },
		func() { Bernstein(2, 3, 0.5) },
		func() { Bernstein(2, -1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBernsteinKnownValues(t *testing.T) {
	// Cubic basis at s = 0.5 is (1/8, 3/8, 3/8, 1/8).
	want := []float64{0.125, 0.375, 0.375, 0.125}
	for r, w := range want {
		if got := Bernstein(3, r, 0.5); math.Abs(got-w) > 1e-15 {
			t.Errorf("B_{3,%d}(0.5) = %v, want %v", r, got, w)
		}
	}
	// Endpoints.
	if Bernstein(3, 0, 0) != 1 || Bernstein(3, 3, 1) != 1 {
		t.Errorf("Bernstein endpoint values wrong")
	}
	if Bernstein(3, 1, 0) != 0 || Bernstein(3, 2, 1) != 0 {
		t.Errorf("Bernstein interior values at endpoints should be 0")
	}
}

func TestBernsteinPartitionOfUnityProperty(t *testing.T) {
	f := func(raw float64) bool {
		s := math.Mod(math.Abs(raw), 1) // fold into [0,1)
		for _, n := range []int{1, 2, 3, 5, 8} {
			var sum float64
			for r := 0; r <= n; r++ {
				b := Bernstein(n, r, s)
				sum += b
				if b < -1e-15 {
					return false // basis must be non-negative on [0,1]
				}
			}
			if math.Abs(sum-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCubicMMatchesBernstein(t *testing.T) {
	// P·M·z must reproduce the Bernstein expansion for a 1-D curve.
	p := []float64{0.2, 0.9, 0.1, 0.8}
	m := eq15M
	for _, s := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		z := monomials(3, s)
		var viaM float64
		for r := 0; r < 4; r++ {
			var mz float64
			for c := 0; c < 4; c++ {
				mz += m[r][c] * z[c]
			}
			viaM += p[r] * mz
		}
		var viaB float64
		for r := 0; r < 4; r++ {
			viaB += p[r] * Bernstein(3, r, s)
		}
		if math.Abs(viaM-viaB) > 1e-14 {
			t.Errorf("s=%v: PMz=%v Bernstein=%v", s, viaM, viaB)
		}
	}
}

// eq15M is the 4×4 coefficient matrix of Eq. 15 converting the monomial
// basis z = (1, s, s², s³)ᵀ into cubic Bernstein coordinates: f(s) = P·M·z.
// It is the paper's own statement of BernsteinToMonomial(3).
var eq15M = [][]float64{
	{1, -3, 3, -1},
	{0, 3, -6, 3},
	{0, 0, 3, -3},
	{0, 0, 0, 1},
}

// monomials returns z = (1, s, s², ..., s^deg)ᵀ.
func monomials(deg int, s float64) []float64 {
	z := make([]float64, deg+1)
	z[0] = 1
	for i := 1; i <= deg; i++ {
		z[i] = z[i-1] * s
	}
	return z
}
