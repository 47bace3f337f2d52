package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.37) * (x - 0.37) }
	got, _ := GoldenSectionMin(f, 0, 1, 1e-10, 200)
	if math.Abs(got-0.37) > 1e-8 {
		t.Errorf("minimum = %v, want 0.37", got)
	}
}

func TestGoldenSectionEndpointMinimum(t *testing.T) {
	// Monotone increasing on the bracket → minimum at lo.
	got, _ := GoldenSectionMin(func(x float64) float64 { return x }, 0, 1, 1e-10, 200)
	if got > 1e-6 {
		t.Errorf("minimum = %v, want ~0", got)
	}
	got, _ = GoldenSectionMin(func(x float64) float64 { return -x }, 0, 1, 1e-10, 200)
	if got < 1-1e-6 {
		t.Errorf("minimum = %v, want ~1", got)
	}
}

func TestGoldenSectionQuickProperty(t *testing.T) {
	// For any unimodal |x−c| on [0,1] with interior c, GSS finds c.
	f := func(raw float64) bool {
		c := math.Mod(math.Abs(raw), 1)
		if math.IsNaN(c) {
			c = 0.5
		}
		got, _ := GoldenSectionMin(func(x float64) float64 { return math.Abs(x - c) }, 0, 1, 1e-10, 300)
		return math.Abs(got-c) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenSectionPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	GoldenSectionMin(func(x float64) float64 { return x }, 1, 0, 1e-9, 10)
}

func TestGoldenSectionDefaultTol(t *testing.T) {
	got, _ := GoldenSectionMin(func(x float64) float64 { return (x - 0.5) * (x - 0.5) }, 0, 1, 0, 300)
	if math.Abs(got-0.5) > 1e-7 {
		t.Errorf("minimum with default tol = %v", got)
	}
}

func TestBrentQuartic(t *testing.T) {
	f := func(x float64) float64 { return math.Pow(x-0.6, 4) + 0.3*(x-0.6)*(x-0.6) }
	got, _ := BrentMin(f, 0, 1, 1e-12, 200)
	if math.Abs(got-0.6) > 1e-6 {
		t.Errorf("BrentMin = %v, want 0.6", got)
	}
}

func TestBrentMatchesGoldenSection(t *testing.T) {
	for _, c := range []float64{0.1, 0.33, 0.5, 0.77, 0.95} {
		f := func(x float64) float64 { return (x - c) * (x - c) }
		g, _ := GoldenSectionMin(f, 0, 1, 1e-11, 300)
		b, _ := BrentMin(f, 0, 1, 1e-11, 300)
		if math.Abs(g-b) > 1e-6 {
			t.Errorf("c=%v: GSS %v vs Brent %v", c, g, b)
		}
	}
}

func TestBrentPanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	BrentMin(func(x float64) float64 { return x }, 1, 0, 1e-9, 10)
}

func TestGoldenSectionReturnsEvaluatedPoint(t *testing.T) {
	// The returned minimiser must be a point that f was actually called
	// with (the best one), not a synthetic midpoint.
	evaluated := map[float64]bool{}
	f := func(x float64) float64 {
		evaluated[x] = true
		return (x - 0.31) * (x - 0.31)
	}
	x, fx := GoldenSectionMin(f, 0, 1, 1e-10, 200)
	if !evaluated[x] {
		t.Errorf("returned point %v was never evaluated", x)
	}
	if fx != (x-0.31)*(x-0.31) {
		t.Errorf("returned value %v does not match f(x)=%v", fx, (x-0.31)*(x-0.31))
	}
	for e := range evaluated {
		if (e-0.31)*(e-0.31) < fx {
			t.Errorf("evaluated point %v beats the returned one", e)
		}
	}
}

func TestBrentMinReturnsAttainedValue(t *testing.T) {
	f := func(x float64) float64 { return math.Cosh(x - 0.4) }
	x, fx := BrentMin(f, 0, 1, 1e-12, 200)
	if fx != f(x) {
		t.Errorf("BrentMin value %v != f(x) %v", fx, f(x))
	}
	if math.Abs(x-0.4) > 1e-6 {
		t.Errorf("BrentMin x = %v, want 0.4", x)
	}
}
