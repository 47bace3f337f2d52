package bezier

import (
	"math"
	"math/rand"
	"testing"
)

func randCurve(rng *rand.Rand, deg, dim int) *Curve {
	pts := make([][]float64, deg+1)
	for r := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[r] = p
	}
	return MustNew(pts)
}

// TestCompiledEvalMatchesCurve evaluates each coordinate's centre-shifted
// coefficients at t = s − ½ and checks them against de Casteljau.
func TestCompiledEvalMatchesCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for deg := 2; deg <= 6; deg++ {
		for _, dim := range []int{1, 3, 7} {
			c := randCurve(rng, deg, dim)
			cc := Compile(c)
			if cc.Degree() != deg || cc.Dim() != dim {
				t.Fatalf("deg/dim lost in compilation")
			}
			sm := cc.ShiftedMono()
			for trial := 0; trial < 50; trial++ {
				s := rng.Float64()
				want := c.Eval(s)
				for j := range want {
					got := EvalPoly(sm[j*(deg+1):(j+1)*(deg+1)], s-DistPolyOrigin)
					if math.Abs(got-want[j]) > 1e-13 {
						t.Fatalf("deg=%d dim=%d s=%v coord %d: %v vs %v", deg, dim, s, j, got, want[j])
					}
				}
			}
		}
	}
}

// sqDist is the squared Euclidean distance from x to c(s), the reference
// the collapsed distance polynomial is checked against.
func sqDist(c *Curve, x []float64, s float64) float64 {
	var sum float64
	for j, v := range c.Eval(s) {
		d := x[j] - v
		sum += d * d
	}
	return sum
}

// TestDistanceTo pins the squared distance the projection minimises on a
// straight line c(s) = (s, s): zero for a point on the curve, and 1 from
// (0, 1) to c(0).
func TestDistanceTo(t *testing.T) {
	cc := Compile(MustNew([][]float64{{0, 0}, {0.5, 0.5}, {1, 1}}))
	dc := make([]float64, 5)
	if got := EvalPoly(cc.DistPolyInto(dc, []float64{0.5, 0.5}), 0.5-DistPolyOrigin); math.Abs(got) > 1e-14 {
		t.Errorf("distance to a point on the curve = %v, want 0", got)
	}
	if got := EvalPoly(cc.DistPolyInto(dc, []float64{0, 1}), 0-DistPolyOrigin); math.Abs(got-1) > 1e-14 {
		t.Errorf("squared distance = %v, want 1", got)
	}
}

func TestCompiledDistPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for deg := 2; deg <= 6; deg++ {
		for _, dim := range []int{1, 2, 5, 16} {
			c := randCurve(rng, deg, dim)
			cc := Compile(c)
			x := make([]float64, dim)
			for j := range x {
				x[j] = rng.Float64()
			}
			dc := cc.DistPolyInto(make([]float64, 2*deg+1), x)
			for trial := 0; trial < 30; trial++ {
				s := rng.Float64()
				want := sqDist(c, x, s)
				got := EvalPoly(dc, s-DistPolyOrigin)
				if math.Abs(got-want) > 1e-13*float64(dim) {
					t.Fatalf("deg=%d dim=%d s=%v: poly %v vs direct %v", deg, dim, s, got, want)
				}
			}
		}
	}
}

func BenchmarkCompiledDistPolyEval(b *testing.B) {
	c := benchCubic()
	cc := Compile(c)
	x := []float64{0.5, 0.5, 0.5, 0.5}
	dc := cc.DistPolyInto(make([]float64, 7), x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalPoly(dc, 0.37-DistPolyOrigin)
	}
}

// TestCompileIntoMatchesCompile: recompiling a Compiled in place for a new
// curve must produce bit-identical coefficients to a fresh Compile of that
// curve, whether the shape matches (buffer-reuse path) or changes
// (reallocation path), and must do so without allocating in steady state.
func TestCompileIntoMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	equalSlices := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s length %d, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %.17g, want %.17g", what, i, got[i], want[i])
			}
		}
	}
	check := func(t *testing.T, got, want *Compiled) {
		t.Helper()
		equalSlices(t, "smono", got.smono, want.smono)
		equalSlices(t, "snormSq", got.snormSq, want.snormSq)
	}

	// Same-shape recompiles walk a sequence of curves through one Compiled.
	dst := Compile(randCurve(rng, 3, 4))
	for i := 0; i < 5; i++ {
		c := randCurve(rng, 3, 4)
		CompileInto(dst, c)
		check(t, dst, Compile(c))
	}
	// Shape changes reallocate and still match.
	for _, shape := range [][2]int{{2, 4}, {5, 2}, {3, 4}} {
		c := randCurve(rng, shape[0], shape[1])
		CompileInto(dst, c)
		check(t, dst, Compile(c))
	}
	// Steady state allocates nothing.
	c := randCurve(rng, 3, 4)
	if allocs := testing.AllocsPerRun(10, func() { CompileInto(dst, c) }); allocs != 0 {
		t.Fatalf("same-shape CompileInto allocated %.0f times", allocs)
	}
}
