package bezier

import "testing"

func TestShapesAreStrictlyMonotone(t *testing.T) {
	// Every canonical Fig. 4 layout must be strictly increasing in both
	// coordinates with interior control points — that is the entire point
	// of the figure.
	for _, s := range Shapes() {
		c := Canonical2D(s)
		for _, p := range c.Points[1:3] {
			for _, v := range p {
				if !(v > 0 && v < 1) {
					t.Errorf("%v: control point %v not interior", s, p)
				}
			}
		}
		if !StrictlyMonotone(c, []float64{1, 1}) {
			t.Errorf("%v: not strictly monotone", s)
		}
	}
}

func TestShapesDistinctCurvature(t *testing.T) {
	// Convex must lie below the diagonal at s=0.5, concave above; the two S
	// shapes must cross it in opposite directions (below-then-above vs
	// above-then-below).
	mid := func(s Shape) (x, y float64) {
		p := Canonical2D(s).Eval(0.5)
		return p[0], p[1]
	}
	if x, y := mid(ShapeConvex); y >= x {
		t.Errorf("convex midpoint (%v,%v) should be below diagonal", x, y)
	}
	if x, y := mid(ShapeConcave); y <= x {
		t.Errorf("concave midpoint (%v,%v) should be above diagonal", x, y)
	}
	early := Canonical2D(ShapeS).Eval(0.25)
	late := Canonical2D(ShapeS).Eval(0.75)
	if early[1] >= early[0] || late[1] <= late[0] {
		t.Errorf("s-shape should start below (%v) and end above (%v) the diagonal", early, late)
	}
	early = Canonical2D(ShapeReverseS).Eval(0.25)
	late = Canonical2D(ShapeReverseS).Eval(0.75)
	if early[1] <= early[0] || late[1] >= late[0] {
		t.Errorf("reverse-s should start above (%v) and end below (%v) the diagonal", early, late)
	}
}

func TestShapeString(t *testing.T) {
	if ShapeConvex.String() != "convex" || Shape(99).String() != "unknown" {
		t.Errorf("Shape.String misbehaves")
	}
}

func TestCanonical2DPanicsUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	Canonical2D(Shape(42))
}
