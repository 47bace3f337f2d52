package oracle

import (
	"go/build"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// randCurve returns a degree-k curve in d dimensions with control points
// uniform in [0,1]^d: not monotone, so profiles with several basins occur.
func randCurve(rng *rand.Rand, k, d int) [][]float64 {
	pts := make([][]float64, k+1)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// bernstein evaluates the curve from its Bernstein expansion
// Σ C(k,i) sⁱ (1−s)^(k−i) P_i — a second formula for what de Casteljau
// computes.
func bernstein(ctrl [][]float64, s float64) []float64 {
	k := len(ctrl) - 1
	out := make([]float64, len(ctrl[0]))
	binom := 1.0
	for i, p := range ctrl {
		b := binom * math.Pow(s, float64(i)) * math.Pow(1-s, float64(k-i))
		for j, v := range p {
			out[j] += b * v
		}
		binom = binom * float64(k-i) / float64(i+1)
	}
	return out
}

// TestEvalMatchesBernsteinAndDifferences pins the de Casteljau evaluation:
// f against the Bernstein expansion, f′ and f″ against central differences
// of f and f′, for degrees 1–6.
func TestEvalMatchesBernsteinAndDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 6; k++ {
		ctrl := randCurve(rng, k, 3)
		c := New(ctrl, 4)
		w := make([]float64, (k+1)*3)
		at := func(s float64) (f, f1, f2 []float64) {
			f, f1, f2 = make([]float64, 3), make([]float64, 3), make([]float64, 3)
			c.eval(w, s, f, f1, f2)
			return f, f1, f2
		}
		const eps = 1e-5
		for _, s := range []float64{0, 0.13, 0.5, 0.77, 1} {
			f, f1, f2 := at(s)
			fp, f1p, _ := at(s + eps)
			fm, f1m, _ := at(s - eps)
			want := bernstein(ctrl, s)
			for j := range f {
				if math.Abs(f[j]-want[j]) > 1e-14 {
					t.Fatalf("k=%d s=%v: f[%d] = %v, Bernstein %v", k, s, j, f[j], want[j])
				}
				if d := (fp[j] - fm[j]) / (2 * eps); math.Abs(f1[j]-d) > 1e-7*(1+math.Abs(d)) {
					t.Fatalf("k=%d s=%v: f′[%d] = %v, central difference %v", k, s, j, f1[j], d)
				}
				if d := (f1p[j] - f1m[j]) / (2 * eps); math.Abs(f2[j]-d) > 1e-6*(1+math.Abs(d)) {
					t.Fatalf("k=%d s=%v: f″[%d] = %v, central difference %v", k, s, j, f2[j], d)
				}
			}
		}
	}
}

// TestProjectSegment checks the oracle on a straight segment, where the
// projection has a closed form: the clamped foot of the perpendicular.
func TestProjectSegment(t *testing.T) {
	c := New([][]float64{{0, 0}, {1, 1}}, DefaultCells)
	for _, tc := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{0.3, 0.7}, 0.5},
		{[]float64{0.25, 0.25}, 0.25},
		{[]float64{2, 2}, 1},
		{[]float64{-1, -0.5}, 0},
	} {
		r := tc.x
		got := c.Project(r)
		if math.Abs(got.S-tc.want) > 1e-15 {
			t.Errorf("x=%v: S = %.17g, want %v", tc.x, got.S, tc.want)
		}
		e0, e1 := tc.want-r[0], tc.want-r[1]
		if math.Abs(got.Dist-(e0*e0+e1*e1)) > 1e-15 {
			t.Errorf("x=%v: Dist = %v, want %v", tc.x, got.Dist, e0*e0+e1*e1)
		}
	}
}

// TestProjectMatchesDenseScan holds the oracle to a plain 20,000-cell scan
// of D on curves that bend back on themselves: the global distances agree
// to within the scan's own error, Dist is D(S), and every candidate flagged
// Min is a local minimum.
func TestProjectMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		k := 2 + trial%5
		ctrl := randCurve(rng, k, 2)
		c := New(ctrl, DefaultCells)
		x := []float64{1.6*rng.Float64() - 0.3, 1.6*rng.Float64() - 0.3}
		r := c.Project(x)
		const cells = 20000
		sc := c.scratch()
		best := math.Inf(1)
		for i := 0; i <= cells; i++ {
			if d := sc.dist(x, float64(i)/cells); d < best {
				best = d
			}
		}
		if r.Dist > best+1e-15 {
			t.Fatalf("trial %d: oracle distance %.17g above the dense scan's %.17g", trial, r.Dist, best)
		}
		// The scan node nearest the minimiser is within half a cell of it.
		if h := 1.0 / cells; r.Dist < best-r.M*h*h/8-1e-15 {
			t.Fatalf("trial %d: oracle distance %.17g below the dense scan's %.17g by more than its error", trial, r.Dist, best)
		}
		if r.DistAt(r.S) != r.Dist {
			t.Fatalf("trial %d: Dist %v is not D(S) = %v", trial, r.Dist, r.DistAt(r.S))
		}
		for i, cd := range r.Candidates {
			if i > 0 && cd.S < r.Candidates[i-1].S {
				t.Fatalf("trial %d: candidates out of order: %+v", trial, r.Candidates)
			}
			if !cd.Min {
				continue
			}
			for _, ds := range []float64{-1e-6, 1e-6} {
				if s := cd.S + ds; s >= 0 && s <= 1 && r.DistAt(s) < cd.Dist-1e-15 {
					t.Fatalf("trial %d: candidate %+v is not a local minimum (D(%v) = %v)", trial, cd, s, r.DistAt(s))
				}
			}
		}
		if first, last := r.Candidates[0], r.Candidates[len(r.Candidates)-1]; first.S != 0 || last.S != 1 {
			t.Fatalf("trial %d: candidates %+v do not include both ends", trial, r.Candidates)
		}
	}
}

// TestNearTieRow pins clause (b)'s exemption on a cubic row whose profile
// has an interior minimum near s = 0.968 and an end minimum at s = 1 that
// is within M·h²/4 (h = 1/32) of it: Check accepts the seed node 31/32,
// which a 32-cell grid-seeded search publishes there because its bracket
// holds both basins, and rejects a score far from both.
func TestNearTieRow(t *testing.T) {
	c := New([][]float64{{0, 0}, {0.3365, 0.8843}, {0.9030, 0.9392}, {1, 1}}, DefaultCells)
	r := c.Project([]float64{0.9362, 1.1036})
	var mins []float64
	for _, cd := range r.Candidates {
		if cd.Min {
			mins = append(mins, cd.S)
		}
	}
	if len(mins) != 2 || math.Abs(mins[0]-0.968) > 1e-3 || mins[1] != 1 {
		t.Fatalf("local minima at %v, want one near 0.968 and one at 1", mins)
	}
	const h = 1.0 / 32
	if !r.NearTie(r.M * h * h / 4) {
		t.Fatal("row is not a near tie at a 32-cell grid")
	}
	if err := r.Check(31.0/32, 32); err != nil {
		t.Fatalf("seed node 31/32 rejected: %v", err)
	}
	if err := r.Check(0.5, 32); err == nil {
		t.Fatal("s = 0.5 accepted")
	}
}

// TestCheckRejects: Check flags a score off the unique minimiser (1e-9
// off is enough where D is not flat), a score in a worse basin, and scores
// outside [0,1].
func TestCheckRejects(t *testing.T) {
	c := New([][]float64{{0, 0}, {0.3, 0.6}, {0.7, 0.9}, {1, 1}}, DefaultCells)
	r := c.Project([]float64{0.4, 0.6})
	if r.Flat() {
		t.Fatalf("D is flat at S = %v", r.S)
	}
	if err := r.Check(r.S, 32); err != nil {
		t.Fatalf("the oracle's own minimiser rejected: %v", err)
	}
	for _, s := range []float64{r.S + 1e-9, r.S - 0.2, 1, math.NaN(), -0.1, 1.1} {
		if err := r.Check(s, 32); err == nil {
			t.Errorf("score %v accepted (oracle %v)", s, r.S)
		}
	}
}

// TestCheckExemptsFlatMinimum: where D is flat to second order at the
// minimiser, Check holds a score to part (a) alone. The two flat rows are
// ones the engine scored off the oracle's minimiser at the same distance
// to rounding: the origin row on a curve that stalls (P₀ = P₁ = P₂),
// 8.5e-4 off, and on a degree-2 curve where D′(0) = D″(0) = 0, 2.9e-8
// off. (TestCheckRejects holds a row whose D curves at its minimiser to
// part (b).)
func TestCheckExemptsFlatMinimum(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctrl [][]float64
		x    []float64
		off  float64
	}{
		{"stalled curve", [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0.1, 0, 0}, {0, 1, 0}}, []float64{0, 0, 0}, 8.5e-4},
		{"D′(0) = D″(0) = 0", [][]float64{{0, 0, 0.1, 0.1}, {0.1, 0, 0.1, 0.1}, {1, 1, 0, 0}}, []float64{0, 0, 0, 0}, 2.9e-8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.ctrl, DefaultCells).Project(tc.x)
			if !r.Flat() {
				t.Errorf("D is not flat at S = %v", r.S)
			}
			if err := r.Check(r.S+tc.off, DefaultCells); err != nil {
				t.Errorf("score %v off the minimiser rejected: %v", tc.off, err)
			}
			if err := r.Check(0.5, DefaultCells); err == nil {
				t.Error("s = 0.5 accepted, far from the minimum distance")
			}
		})
	}
}

// TestImportsOnlyStdlib keeps the oracle independent of the code it
// checks: no non-test file of this package may import anything outside
// the standard library.
func TestImportsOnlyStdlib(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := build.Import(path, ".", build.FindOnly)
			if err != nil || !pkg.Goroot {
				t.Errorf("%s imports %q, which is not in the standard library", name, path)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-test files found")
	}
}
