package bezier

import "fmt"

// Curve is a Bézier curve of arbitrary degree in d-dimensional space.
// Points[r] is the r-th control point (Points[0] and Points[len-1] are the
// end points in the paper's terminology); all points must share the same
// dimension.
type Curve struct {
	Points [][]float64
}

// New constructs a curve from control points, validating that at least two
// points are supplied and that all share one dimension. The point slices are
// used directly (not copied).
func New(points [][]float64) (*Curve, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("bezier: need at least 2 control points, got %d", len(points))
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("bezier: control points must have dimension >= 1")
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("bezier: control point %d has dim %d, want %d", i, len(p), d)
		}
	}
	return &Curve{Points: points}, nil
}

// MustNew is New that panics on error, for compile-time-constant layouts.
func MustNew(points [][]float64) *Curve {
	c, err := New(points)
	if err != nil {
		panic(err)
	}
	return c
}

// Degree returns the polynomial degree (number of control points − 1).
func (c *Curve) Degree() int { return len(c.Points) - 1 }

// Dim returns the ambient dimension.
func (c *Curve) Dim() int { return len(c.Points[0]) }

// Eval evaluates the curve at parameter s using the de Casteljau recurrence,
// which is numerically stable for all s (including outside [0,1]).
func (c *Curve) Eval(s float64) []float64 {
	k := len(c.Points)
	d := c.Dim()
	// Working copy of control points, flattened.
	w := make([]float64, k*d)
	for i, p := range c.Points {
		copy(w[i*d:(i+1)*d], p)
	}
	for level := k - 1; level > 0; level-- {
		for i := 0; i < level; i++ {
			for j := 0; j < d; j++ {
				w[i*d+j] = (1-s)*w[i*d+j] + s*w[(i+1)*d+j]
			}
		}
	}
	out := make([]float64, d)
	copy(out, w[:d])
	return out
}

// Derivative returns the hodograph: the Bézier curve of degree k−1 with
// control points k·(p_{j+1} − p_j) (Eq. 17). Evaluating it at s gives f′(s).
func (c *Curve) Derivative() *Curve {
	k := c.Degree()
	d := c.Dim()
	pts := make([][]float64, k)
	for j := 0; j < k; j++ {
		q := make([]float64, d)
		for i := 0; i < d; i++ {
			q[i] = float64(k) * (c.Points[j+1][i] - c.Points[j][i])
		}
		pts[j] = q
	}
	if k == 0 { // derivative of a point curve: impossible, New enforces >=2 points
		panic("bezier: derivative of degenerate curve")
	}
	if len(pts) == 1 {
		// Degree-0 "curve": represent as two identical points so Eval works.
		pts = append(pts, append([]float64{}, pts[0]...))
	}
	return &Curve{Points: pts}
}

// Split subdivides the curve at s into left and right sub-curves covering
// [0,s] and [s,1], using the de Casteljau triangle.
func (c *Curve) Split(s float64) (left, right *Curve) {
	k := len(c.Points)
	d := c.Dim()
	tri := make([][][]float64, k)
	tri[0] = make([][]float64, k)
	for i, p := range c.Points {
		tri[0][i] = append([]float64{}, p...)
	}
	for level := 1; level < k; level++ {
		tri[level] = make([][]float64, k-level)
		for i := 0; i < k-level; i++ {
			q := make([]float64, d)
			for j := 0; j < d; j++ {
				q[j] = (1-s)*tri[level-1][i][j] + s*tri[level-1][i+1][j]
			}
			tri[level][i] = q
		}
	}
	lp := make([][]float64, k)
	rp := make([][]float64, k)
	for level := 0; level < k; level++ {
		lp[level] = tri[level][0]
		rp[k-1-level] = tri[level][len(tri[level])-1]
	}
	return &Curve{Points: lp}, &Curve{Points: rp}
}
