package stats

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rpcrank/internal/frame"
)

func TestFitNormalizerBasics(t *testing.T) {
	xs := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	n, err := FitNormalizer(xs)
	if err != nil {
		t.Fatal(err)
	}
	got := n.Apply([]float64{5, 20})
	if math.Abs(got[0]-0.5) > 1e-14 || math.Abs(got[1]-0.5) > 1e-14 {
		t.Errorf("Apply midpoint = %v, want (0.5,0.5)", got)
	}
	lo := n.Apply([]float64{0, 10})
	hi := n.Apply([]float64{10, 30})
	if lo[0] != 0 || lo[1] != 0 || hi[0] != 1 || hi[1] != 1 {
		t.Errorf("extremes map to %v and %v, want 0s and 1s", lo, hi)
	}
}

func TestFitNormalizerErrors(t *testing.T) {
	if _, err := FitNormalizer(nil); err == nil {
		t.Errorf("empty input should error")
	}
	if _, err := FitNormalizer([][]float64{{}}); err == nil {
		t.Errorf("zero-column rows should error")
	}
	if _, err := FitNormalizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Errorf("ragged rows should error")
	}
	if _, err := FitNormalizer([][]float64{{math.NaN()}}); err == nil {
		t.Errorf("NaN should error")
	}
	if _, err := FitNormalizer([][]float64{{math.Inf(1)}}); err == nil {
		t.Errorf("Inf should error")
	}
}

func TestNormalizerDegenerateColumn(t *testing.T) {
	xs := [][]float64{{7, 1}, {7, 2}}
	n, err := FitNormalizer(xs)
	if err != nil {
		t.Fatal(err)
	}
	got := n.Apply([]float64{7, 1.5})
	if math.Abs(got[0]-0.5) > 1e-14 {
		t.Errorf("constant column should map to 0.5, got %v", got[0])
	}
}

func TestNormalizerRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([][]float64, 30)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64() * 100, rng.Float64() * 1e-3, rng.NormFloat64()}
	}
	n, err := FitNormalizer(xs)
	if err != nil {
		t.Fatal(err)
	}
	f := func(i uint8) bool {
		row := xs[int(i)%len(xs)]
		back := n.Invert(n.Apply(row))
		for j := range row {
			scale := math.Abs(n.Max[j]-n.Min[j]) + 1
			if math.Abs(back[j]-row[j]) > 1e-10*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizerApplyAllAndDim(t *testing.T) {
	xs := [][]float64{{0, 0}, {2, 4}}
	n, _ := FitNormalizer(xs)
	if n.Dim() != 2 {
		t.Errorf("Dim = %d", n.Dim())
	}
	all := n.ApplyAll(xs)
	if len(all) != 2 || all[1][1] != 1 {
		t.Errorf("ApplyAll = %v", all)
	}
}

func TestNormalizerPanicsOnDimMismatch(t *testing.T) {
	n, _ := FitNormalizer([][]float64{{0, 0}, {1, 1}})
	for i, fn := range []func(){
		func() { n.Apply([]float64{1}) },
		func() { n.Invert([]float64{1, 2, 3}) },
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

func TestColumnMeans(t *testing.T) {
	xs := [][]float64{{1, 2}, {3, 6}}
	mu := ColumnMeans(xs)
	if mu[0] != 2 || mu[1] != 4 {
		t.Errorf("means = %v, want [2 4]", mu)
	}
	if ColumnMeans(nil) != nil {
		t.Errorf("means of empty should be nil")
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns.
	xs := [][]float64{{0, 0}, {1, 2}, {2, 4}}
	cov := Covariance(xs)
	if math.Abs(cov[0][0]-1) > 1e-12 {
		t.Errorf("var(x) = %v, want 1", cov[0][0])
	}
	if math.Abs(cov[1][1]-4) > 1e-12 {
		t.Errorf("var(y) = %v, want 4", cov[1][1])
	}
	if math.Abs(cov[0][1]-2) > 1e-12 || cov[0][1] != cov[1][0] {
		t.Errorf("cov(x,y) = %v/%v, want 2 symmetric", cov[0][1], cov[1][0])
	}
}

func TestCovariancePanicsSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	Covariance([][]float64{{1, 2}})
}

func TestTotalVarianceAndExplained(t *testing.T) {
	xs := [][]float64{{0}, {2}}
	// mean 1, total variance (1)² + (1)² = 2.
	if got := TotalVariance(xs); math.Abs(got-2) > 1e-14 {
		t.Errorf("TotalVariance = %v, want 2", got)
	}
	// Perfect fit explains everything.
	if got := ExplainedVariance(xs, []float64{0, 0}); got != 1 {
		t.Errorf("ExplainedVariance(perfect) = %v, want 1", got)
	}
	// Residuals equal to total variance explain nothing.
	if got := ExplainedVariance(xs, []float64{1, 1}); math.Abs(got) > 1e-14 {
		t.Errorf("ExplainedVariance = %v, want 0", got)
	}
	// Constant data with zero residuals.
	if got := ExplainedVariance([][]float64{{1}, {1}}, []float64{0, 0}); got != 1 {
		t.Errorf("constant data = %v, want 1", got)
	}
}

func TestExplainedVariancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	ExplainedVariance([][]float64{{1}}, []float64{1, 2})
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 3}); got != 2 {
		t.Errorf("MSE = %v, want 2", got)
	}
	if got := MSE(nil); got != 0 {
		t.Errorf("MSE(empty) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for empty")
		}
	}()
	MinMax(nil)
}

func TestApplyIntoMatchesApply(t *testing.T) {
	n, err := FitNormalizer([][]float64{{1, 10, -5}, {3, 20, 5}, {2, 12, 0}})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{2.5, 11, 4}
	want := n.Apply(x)
	dst := make([]float64, 3)
	got := n.ApplyInto(dst, x)
	if &got[0] != &dst[0] {
		t.Errorf("ApplyInto must return dst")
	}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("col %d: %v vs %v", j, got[j], want[j])
		}
	}
	// Aliasing dst and x is documented as safe.
	inPlace := append([]float64{}, x...)
	n.ApplyInto(inPlace, inPlace)
	for j := range want {
		if inPlace[j] != want[j] {
			t.Errorf("aliased col %d: %v vs %v", j, inPlace[j], want[j])
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("short dst must panic")
		}
	}()
	n.ApplyInto(make([]float64, 2), x)
}

func TestFrameVariantsMatchSliceVariants(t *testing.T) {
	rows := [][]float64{{1, 5, 9}, {2, 7, 3}, {8, 2, 4}, {0.5, 0.5, 0.5}}
	f := frame.MustFromRows(rows)

	ns, err := FitNormalizer(rows)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := FitNormalizerFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ns, nf) {
		t.Fatalf("normalizers differ: %+v vs %+v", ns, nf)
	}

	// In-place frame application must be bit-identical to ApplyAll.
	want := ns.ApplyAll(rows)
	nf.ApplyFrame(f)
	for i := range want {
		for j := range want[i] {
			if f.At(i, j) != want[i][j] {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, f.At(i, j), want[i][j])
			}
		}
	}

	g := frame.MustFromRows(rows)
	if !reflect.DeepEqual(ColumnMeans(rows), columnMeans(g)) {
		t.Fatal("frame columnMeans mismatch")
	}
	if TotalVariance(rows) != totalVariance(g) {
		t.Fatal("frame totalVariance mismatch")
	}
	res := []float64{0.1, 0.2, 0.3, 0.4}
	if ExplainedVariance(rows, res) != ExplainedVarianceFrame(g, res) {
		t.Fatal("ExplainedVarianceFrame mismatch")
	}
}

func TestFitNormalizerFrameRejectsNonFinite(t *testing.T) {
	f := frame.MustFromRows([][]float64{{1, 2}, {math.NaN(), 3}})
	if _, err := FitNormalizerFrame(f); err == nil {
		t.Fatal("NaN must be rejected")
	}
	if _, err := FitNormalizerFrame(&frame.Frame{}); err == nil {
		t.Fatal("empty frame must be rejected")
	}
}

// TestFitNormalizerRefusesRangeWithoutFiniteInverse: a column whose range
// is sub-normal (its inverse overflows), whose range overflows, or whose
// constant is too large for the ±0.5 widening to move is refused by both
// fitters, and the error names the column.
func TestFitNormalizerRefusesRangeWithoutFiniteInverse(t *testing.T) {
	for name, col := range map[string][]float64{
		"sub-normal range": {0, 1e-310, 5e-311, 2e-311, 8e-311},
		"range overflows":  {-1e308, 1e308, 0, 1, 2},
		"huge constant":    {1e17, 1e17, 1e17, 1e17, 1e17},
	} {
		rows := make([][]float64, len(col))
		for i, v := range col {
			rows[i] = []float64{float64(i) + 0.5, v}
		}
		_, err := FitNormalizer(rows)
		_, ferr := FitNormalizerFrame(frame.MustFromRows(rows))
		for _, e := range []error{err, ferr} {
			if e == nil || !strings.Contains(e.Error(), "column 1 ") {
				t.Fatalf("%s: error %v, want a refusal naming column 1", name, e)
			}
		}
	}
}
