package bezier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadMinOnUnit returns the minimum of q(s) = a(1−s)² + 2b·s(1−s) + c·s²
// over s ∈ [0,1].
func quadMinOnUnit(a, b, c float64) float64 {
	// Expand to standard form q(s) = A s² + B s + C.
	A := a - 2*b + c
	B := 2 * (b - a)
	C := a
	minv := math.Min(C, A+B+C) // endpoints s=0, s=1
	if A > 0 {
		sv := -B / (2 * A)
		if sv > 0 && sv < 1 {
			v := (A*sv+B)*sv + C
			if v < minv {
				minv = v
			}
		}
	}
	return minv
}

// cubicIncreasing is the closed-form degree-3 oracle: the cubic coordinate
// (p0,p1,p2,p3) is strictly increasing on [0,1] iff its derivative
// quadratic 3[a(1−s)² + 2b·s(1−s) + c·s²], with a = p1−p0, b = p2−p1 and
// c = p3−p2 (Eq. 17), is ≥ 0 there and p3 > p0 (which rules out the
// identically zero derivative). It accepts a derivative that touches zero
// anywhere, which the certificate does only at dyadic midpoints.
func cubicIncreasing(p0, p1, p2, p3 float64) bool {
	return p3 > p0 && quadMinOnUnit(p1-p0, p2-p1, p3-p2) >= 0
}

// line1D is the 1-D Bézier curve with control values vs.
func line1D(vs ...float64) *Curve {
	pts := make([][]float64, len(vs))
	for r, v := range vs {
		pts[r] = []float64{v}
	}
	return MustNew(pts)
}

func increasing(vs ...float64) bool { return StrictlyMonotone(line1D(vs...), []float64{1}) }

func TestStrictlyMonotoneCubicCases(t *testing.T) {
	cases := []struct {
		p0, p1, p2, p3 float64
		want           bool
		name           string
	}{
		{0, 1.0 / 3, 2.0 / 3, 1, true, "straight line"},
		{0, 0.9, 0.1, 1, true, "extreme interior S (min f′ = 0.15)"},
		{0, 0.5, 0.5, 1, true, "flat middle coefficient"},
		{1, 0.5, 0.5, 0, false, "decreasing"},
		{0, 0, 0, 0, false, "constant"},
		{0, -0.5, 0.5, 1, false, "dips below start"},
		{0, 1.5, -0.5, 1, false, "overshoot then crash"},
		{0.2, 0.4, 0.6, 0.8, true, "interior segment"},
	}
	for _, c := range cases {
		if got := increasing(c.p0, c.p1, c.p2, c.p3); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if got := cubicIncreasing(c.p0, c.p1, c.p2, c.p3); got != c.want {
			t.Errorf("%s: closed form %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStrictlyMonotoneDecreasingMirror(t *testing.T) {
	if !StrictlyMonotone(line1D(1, 0.7, 0.3, 0), []float64{-1}) {
		t.Errorf("clearly decreasing coordinate rejected")
	}
	if StrictlyMonotone(line1D(0, 0.3, 0.7, 1), []float64{-1}) {
		t.Errorf("increasing coordinate accepted as decreasing")
	}
}

// TestHuInteriorTheorem verifies the paper's Proposition 1 exactly: with
// end points at 0 and 1 and inner control values anywhere in the open
// interval (0,1), the cubic coordinate is strictly increasing.
func TestHuInteriorTheorem(t *testing.T) {
	f := func(a, b float64) bool {
		p1 := 0.001 + 0.998*fold01(a)
		p2 := 0.001 + 0.998*fold01(b)
		return increasing(0, p1, p2, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCertificateMatchesClosedForm runs the certificate and the degree-3
// closed form on 200,000 random 1-D cubics, half of them checked for a
// decrease. Inner values range half the rise beyond the end values, so
// both answers occur often.
func TestCertificateMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var certified, refuted int
	for trial := 0; trial < 200000; trial++ {
		lo, hi := 0.5*rng.Float64(), 0.5+0.5*rng.Float64()
		inner := func() float64 { return lo + (hi-lo)*(2*rng.Float64()-0.5) }
		p := [4]float64{lo, inner(), inner(), hi}
		alpha := 1.0
		if trial%2 == 1 {
			alpha = -1
			for i := range p {
				p[i] = 1 - p[i]
			}
		}
		got := StrictlyMonotone(line1D(p[:]...), []float64{alpha})
		want := cubicIncreasing(alpha*p[0], alpha*p[1], alpha*p[2], alpha*p[3])
		if got != want {
			t.Fatalf("trial %d: certificate %v, closed form %v (p=%v, alpha=%v)", trial, got, want, p, alpha)
		}
		if got {
			certified++
		} else {
			refuted++
		}
	}
	if certified < 10000 || refuted < 10000 {
		t.Fatalf("draws too one-sided: %d certified, %d refuted", certified, refuted)
	}
}

// TestStrictlyMonotoneTouchingDerivative pins where the certificate and
// the closed form part ways. The cubic (0, 1/3, −1/3, 1) has derivative
// (1 − 3s)², which touches zero at s = 1/3; no dyadic midpoint lands there,
// so the pieces around it never certify and the cap reports false. The
// closed form accepted it. A touch at s = ½, as in (0, 1, 0, 1), is a split
// point, both halves certify, and the curve passes.
func TestStrictlyMonotoneTouchingDerivative(t *testing.T) {
	if !cubicIncreasing(0, 1.0/3, -1.0/3, 1) {
		t.Fatal("closed form should accept the touching cubic")
	}
	touch := line1D(0, 1.0/3, -1.0/3, 1)
	if StrictlyMonotone(touch, []float64{1}) {
		t.Error("derivative touching zero at s = 1/3 certified")
	}
	if !increasing(0, 1, 0, 1) {
		t.Error("derivative touching zero at s = 1/2 not certified")
	}

	// The search stops at the depth cap: it walks one undecided path
	// down, certifying the sibling pieces on the way, so it splits about
	// twice per level. Every split of the reference certificate allocates
	// the same amount, so its allocation count bounds the number of
	// splits; StrictlyMonotone makes the same splits (it agrees with the
	// reference, TestStrictlyMonotoneMatchesReference) in one piece stack
	// allocated on the first split.
	one := []float64{1}
	h := touch.Derivative()
	perSplit := testing.AllocsPerRun(10, func() { h.Split(0.5) })
	total := testing.AllocsPerRun(10, func() { refStrictlyMonotone(touch, one) })
	if maxSplits := 2*maxCertifyDepth + 4; total > float64(maxSplits)*perSplit {
		t.Errorf("touching cubic allocated %.0f times in the reference, more than %d splits of %.0f", total, maxSplits, perSplit)
	}
	if n := testing.AllocsPerRun(10, func() { StrictlyMonotone(touch, one) }); n != 1 {
		t.Errorf("touching cubic allocated %.0f times, want the one piece stack", n)
	}
}

// TestStrictlyMonotoneAllocatesOnlyToSubdivide: a curve whose hodograph
// coefficients certify at once, as a fitted curve's do, allocates nothing,
// up to degree 8 and in any dimension.
func TestStrictlyMonotoneAllocatesOnlyToSubdivide(t *testing.T) {
	for _, k := range []int{1, 3, 6, 8} {
		pts := make([][]float64, k+1)
		for r := range pts {
			u := float64(r) / float64(k)
			pts[r] = []float64{u, 1 - u, u * u}
		}
		c := MustNew(pts)
		alpha := []float64{1, -1, 1}
		if !StrictlyMonotone(c, alpha) {
			t.Fatalf("degree %d: monotone curve not certified", k)
		}
		if n := testing.AllocsPerRun(10, func() { StrictlyMonotone(c, alpha) }); n != 0 {
			t.Errorf("degree %d: certificate allocated %.0f times without subdividing", k, n)
		}
	}
}

// refStrictlyMonotone is the certificate built on Curve.Derivative and
// Curve.Split, which allocate a curve per hodograph coordinate and per
// split; StrictlyMonotone must return its answer on every curve.
func refStrictlyMonotone(c *Curve, alpha []float64) bool {
	if len(alpha) != c.Dim() {
		panic("bezier: alpha dimension mismatch")
	}
	h := c.Derivative()
	for j, a := range alpha {
		if !(a > 0 || a < 0) {
			return false
		}
		pts := make([][]float64, len(h.Points))
		for r, p := range h.Points {
			pts[r] = []float64{a * p[j]}
		}
		if !refCertifyPositive(&Curve{Points: pts}, 0) {
			return false
		}
	}
	return true
}

func refCertifyPositive(g *Curve, depth int) bool {
	b := g.Points
	if b[0][0] < 0 || b[len(b)-1][0] < 0 {
		return false
	}
	nonneg, pos := true, false
	for _, p := range b {
		nonneg = nonneg && p[0] >= 0
		pos = pos || p[0] > 0
	}
	if nonneg && pos {
		return true
	}
	if depth == maxCertifyDepth {
		return false
	}
	l, r := g.Split(0.5)
	return refCertifyPositive(l, depth+1) && refCertifyPositive(r, depth+1)
}

// TestStrictlyMonotoneMatchesReference runs the certificate and the
// reference on 20,000 random curves of degree 1–10 in 1–3 dimensions:
// rising control values jittered so that both answers occur, derivatives
// that touch zero, constant coordinates, and zero or NaN directions.
func TestStrictlyMonotoneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var yes, no int
	for trial := 0; trial < 20000; trial++ {
		k := 1 + trial%10
		d := 1 + rng.Intn(3)
		pts := make([][]float64, k+1)
		for r := range pts {
			pts[r] = make([]float64, d)
		}
		alpha := make([]float64, d)
		for j := range alpha {
			alpha[j] = []float64{1, -1, 1, -1, 2.5, 0, math.NaN()}[rng.Intn(7)]
			jitter := []float64{0, 0.05, 0.3, 1}[rng.Intn(4)]
			for r := range pts {
				v := float64(r) / float64(k)
				if alpha[j] < 0 {
					v = 1 - v
				}
				pts[r][j] = v + jitter*(rng.Float64()-0.5)
			}
			switch rng.Intn(20) {
			case 0: // constant coordinate
				for r := range pts {
					pts[r][j] = 0.5
				}
			case 1: // derivative (1 − 3s)², touching zero off the midpoints
				if k == 3 {
					for r, v := range []float64{0, 1.0 / 3, -1.0 / 3, 1} {
						pts[r][j] = v
					}
				}
			}
		}
		c := MustNew(pts)
		got, want := StrictlyMonotone(c, alpha), refStrictlyMonotone(c, alpha)
		if got != want {
			t.Fatalf("trial %d: certificate %v, reference %v (points %v, alpha %v)", trial, got, want, pts, alpha)
		}
		if got {
			yes++
		} else {
			no++
		}
	}
	if yes < 2000 || no < 2000 {
		t.Fatalf("draws too one-sided: %d certified, %d refused", yes, no)
	}
}

// TestStrictlyMonotoneHigherDegrees checks the certificate below and above
// cubic: curves it must certify, and curves whose derivative dips below
// zero only between the ends.
func TestStrictlyMonotoneHigherDegrees(t *testing.T) {
	cases := []struct {
		vs   []float64
		want bool
	}{
		{[]float64{0, 0.5, 1}, true},
		{[]float64{0, 1.2, 1}, false}, // quadratic overshoot: f′(1) < 0
		{[]float64{0, 0.25, 0.5, 0.75, 1}, true},
		{[]float64{0, 0.6, 0.2, 0.8, 1}, true},       // a negative coefficient, f′ > 0
		{[]float64{0, 1.125, 0.5, -0.125, 1}, false}, // f′ < 0 in the middle only
		{[]float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}, true},
		{[]float64{0, 0.5, 0.45, 0.55, 0.5, 0.9, 1}, true},
		{[]float64{0, 0.7, 0, 0, 1, 0.3, 1}, false}, // f′ < 0 near s = 0.25
	}
	for _, c := range cases {
		if got := increasing(c.vs...); got != c.want {
			t.Errorf("%v: got %v, want %v", c.vs, got, c.want)
		}
		if c.want {
			continue
		}
		// A refusal is backed by a sample of f′ that is clearly negative.
		h := line1D(c.vs...).Derivative()
		neg := false
		for i := 0; i <= 1000 && !neg; i++ {
			neg = h.Eval(float64(i) / 1000)[0] < -1e-9
		}
		if !neg {
			t.Errorf("%v: refused, but no sample of f′ is negative", c.vs)
		}
	}
}

// TestExactCheckAgainstSampling cross-validates the certificate against
// dense sampling of the hodograph on random coordinates of degree 2–6.
func TestExactCheckAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 2000; trial++ {
		deg := 2 + trial%5
		vs := make([]float64, deg+1)
		for r := range vs {
			vs[r] = float64(r)/float64(deg) + 0.5*(rng.Float64()-0.5)
		}
		alpha := 1.0
		if rng.Intn(4) == 0 {
			alpha = -1
		}
		if msg := checkAgainstSamples(vs, alpha); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

// checkAgainstSamples compares the certificate on the 1-D curve vs with
// 2,001 samples of αⱼ·f′ⱼ and returns what disagrees, or "". Only a sample
// clearly below zero, by 1e-9 of the largest hodograph coefficient, counts
// against a certificate, so rounding near a touch never decides. The
// converse cannot be checked by sampling: samples can all be positive while
// f′ dips below zero between them.
func checkAgainstSamples(vs []float64, alpha float64) string {
	c := line1D(vs...)
	h := c.Derivative()
	scale := 0.0
	for _, p := range h.Points {
		scale = math.Max(scale, math.Abs(p[0]))
	}
	if !StrictlyMonotone(c, []float64{alpha}) {
		return ""
	}
	for i := 0; i <= 2000; i++ {
		s := float64(i) / 2000
		if d := alpha * h.Eval(s)[0]; d < -1e-9*scale {
			return fmt.Sprintf("certified, but α·f′(%v) = %v is clearly negative", s, d)
		}
	}
	return ""
}

// FuzzStrictlyMonotone draws one coordinate of degree 2–6 and checks the
// certificate against dense sampling of its hodograph in both directions:
// a certified coordinate has no sample clearly below zero, and one whose
// samples are clearly negative is never certified. It also holds the
// certificate to the reference's answer.
func FuzzStrictlyMonotone(f *testing.F) {
	f.Add(uint8(3), 0.0, 1.0/3, -1.0/3, 1.0, 0.0, 0.0, 0.0, true)
	f.Add(uint8(3), 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, true)
	f.Add(uint8(4), 0.0, 0.6, 0.2, 0.8, 1.0, 0.0, 0.0, true)
	f.Add(uint8(6), 1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.0, false)
	f.Add(uint8(2), 0.0, 1.2, 1.0, 0.0, 0.0, 0.0, 0.0, true)
	f.Fuzz(func(t *testing.T, deg uint8, v0, v1, v2, v3, v4, v5, v6 float64, up bool) {
		k := 2 + int(deg%5)
		vs := []float64{v0, v1, v2, v3, v4, v5, v6}[:k+1]
		for _, v := range vs {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		alpha := 1.0
		if !up {
			alpha = -1
		}
		if msg := checkAgainstSamples(vs, alpha); msg != "" {
			t.Fatalf("%v (alpha %v): %s", vs, alpha, msg)
		}
		c, a := line1D(vs...), []float64{alpha}
		if got, want := StrictlyMonotone(c, a), refStrictlyMonotone(c, a); got != want {
			t.Fatalf("%v (alpha %v): certificate %v, reference %v", vs, alpha, got, want)
		}
	})
}

func TestStrictlyMonotoneMultiDim(t *testing.T) {
	// Coordinate 0 increasing, coordinate 1 decreasing: α = (1,−1).
	c := MustNew([][]float64{
		{0, 1},
		{0.3, 0.6},
		{0.7, 0.4},
		{1, 0},
	})
	if !StrictlyMonotone(c, []float64{1, -1}) {
		t.Errorf("valid (inc,dec) curve rejected")
	}
	if StrictlyMonotone(c, []float64{1, 1}) {
		t.Errorf("alpha (1,1) should fail on decreasing coordinate")
	}
	if StrictlyMonotone(c, []float64{1, 0}) {
		t.Errorf("alpha with zero entry must be rejected")
	}
	if StrictlyMonotone(c, []float64{1, math.NaN()}) {
		t.Errorf("alpha with NaN entry must be rejected")
	}
}

func TestStrictlyMonotonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("alpha length mismatch should panic")
		}
	}()
	StrictlyMonotone(line1D(0, 0.3, 0.7, 1), []float64{1, 1})
}

func fold01(v float64) float64 {
	v = math.Mod(math.Abs(v), 1)
	if math.IsNaN(v) {
		return 0.5
	}
	return v
}
