package bezier

import (
	"math"
	"math/rand"
	"testing"
)

func randCubic(rng *rand.Rand, d int) *Curve {
	pts := make([][]float64, 4)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return MustNew(pts)
}

func TestNewValidation(t *testing.T) {
	if _, err := New([][]float64{{0, 0}}); err == nil {
		t.Errorf("one point should be rejected")
	}
	if _, err := New([][]float64{{}, {}}); err == nil {
		t.Errorf("zero-dimensional points should be rejected")
	}
	if _, err := New([][]float64{{0, 0}, {1}}); err == nil {
		t.Errorf("ragged points should be rejected")
	}
	if _, err := New([][]float64{{0}, {1}}); err != nil {
		t.Errorf("valid linear curve rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	MustNew([][]float64{{0}})
}

func TestEvalEndpoints(t *testing.T) {
	c := MustNew([][]float64{{0, 0}, {0.3, 0.8}, {0.7, 0.2}, {1, 1}})
	p0 := c.Eval(0)
	p1 := c.Eval(1)
	if p0[0] != 0 || p0[1] != 0 {
		t.Errorf("Eval(0) = %v, want first control point", p0)
	}
	if p1[0] != 1 || p1[1] != 1 {
		t.Errorf("Eval(1) = %v, want last control point", p1)
	}
}

// TestEvalMatchesBernstein checks de Casteljau against the Bernstein
// expansion Σ B_{k,r}(s)·p_r of Eq. 12.
func TestEvalMatchesBernstein(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		c := randCubic(rng, 3)
		for _, s := range []float64{0, 0.13, 0.5, 0.77, 1} {
			a := c.Eval(s)
			b := make([]float64, c.Dim())
			for r, p := range c.Points {
				for j := range b {
					b[j] += Bernstein(c.Degree(), r, s) * p[j]
				}
			}
			for j := range a {
				if math.Abs(a[j]-b[j]) > 1e-13 {
					t.Fatalf("trial %d s=%v: de Casteljau %v vs Bernstein %v", trial, s, a, b)
				}
			}
		}
	}
}

func TestLinearCurveIsLine(t *testing.T) {
	c := MustNew([][]float64{{0, 0}, {2, 4}})
	got := c.Eval(0.25)
	if math.Abs(got[0]-0.5) > 1e-14 || math.Abs(got[1]-1) > 1e-14 {
		t.Errorf("Eval(0.25) = %v, want (0.5,1)", got)
	}
}

func TestDerivativeMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randCubic(rng, 2)
	dc := c.Derivative()
	const h = 1e-6
	for _, s := range []float64{0.1, 0.4, 0.9} {
		fd0 := c.Eval(s - h)
		fd1 := c.Eval(s + h)
		want := []float64{(fd1[0] - fd0[0]) / (2 * h), (fd1[1] - fd0[1]) / (2 * h)}
		got := dc.Eval(s)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-5 {
				t.Errorf("s=%v coord %d: hodograph %v vs FD %v", s, j, got[j], want[j])
			}
			// Eq. 17 directly: f′(s) = Σ k·B_{k−1,r}(s)·(p_{r+1} − p_r).
			var eq17 float64
			for r := 0; r < 3; r++ {
				eq17 += 3 * Bernstein(2, r, s) * (c.Points[r+1][j] - c.Points[r][j])
			}
			if math.Abs(eq17-got[j]) > 1e-12 {
				t.Errorf("s=%v coord %d: Eq. 17 %v vs hodograph %v", s, j, eq17, got[j])
			}
		}
	}
}

func TestDerivativeOfLinear(t *testing.T) {
	c := MustNew([][]float64{{0, 0}, {2, 4}})
	g := c.Derivative().Eval(0.5)
	if math.Abs(g[0]-2) > 1e-14 || math.Abs(g[1]-4) > 1e-14 {
		t.Errorf("derivative of line = %v, want (2,4)", g)
	}
}

func TestSplitContinuity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randCubic(rng, 3)
	for _, s := range []float64{0.25, 0.5, 0.8} {
		l, r := c.Split(s)
		// Left covers [0,s]: l(u) == c(u*s).
		for _, u := range []float64{0, 0.3, 0.7, 1} {
			want := c.Eval(u * s)
			got := l.Eval(u)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("split left s=%v u=%v: %v vs %v", s, u, got, want)
				}
			}
			// Right covers [s,1]: r(u) == c(s + u(1−s)).
			want = c.Eval(s + u*(1-s))
			got = r.Eval(u)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("split right s=%v u=%v: %v vs %v", s, u, got, want)
				}
			}
		}
	}
}

func TestDegreeDim(t *testing.T) {
	c := MustNew([][]float64{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}})
	if c.Degree() != 2 || c.Dim() != 3 {
		t.Errorf("Degree=%d Dim=%d, want 2,3", c.Degree(), c.Dim())
	}
}
