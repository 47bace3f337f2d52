package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randomSymmetric returns a random symmetric n×n matrix.
func randomSymmetric(rng *rand.Rand, n int) *Dense {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	e := SymEigen(a)
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Errorf("Values = %v, want [3 1]", e.Values)
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	e := SymEigen(a)
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Errorf("Values = %v, want [3 1]", e.Values)
	}
	// Eigenvector for 3 is (1,1)/√2 up to sign.
	v := e.Vectors.Col(0)
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-8 || math.Abs(v[0]-v[1]) > 1e-8 {
		t.Errorf("top eigenvector = %v, want ±(0.707,0.707)", v)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		a := randomSymmetric(rng, n)
		e := SymEigen(a)
		// Rebuild A = V diag(λ) Vᵀ.
		rec := Mul(MulDiagRight(e.Vectors, e.Values), T(e.Vectors))
		if !rec.EqualApprox(a, 1e-8) {
			t.Errorf("n=%d: reconstruction error %.3g", n, FrobeniusNorm(Sub(rec, a)))
		}
		// V must be orthonormal.
		vtv := Mul(T(e.Vectors), e.Vectors)
		if !vtv.EqualApprox(Identity(n), 1e-8) {
			t.Errorf("n=%d: VᵀV not identity", n)
		}
		// Values sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Errorf("n=%d: values not sorted: %v", n, e.Values)
			}
		}
	}
}

func TestSymEigenTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		a := randomSymmetric(rng, 4)
		e := SymEigen(a)
		var sum float64
		for _, v := range e.Values {
			sum += v
		}
		if math.Abs(sum-Trace(a)) > 1e-9 {
			t.Errorf("trial %d: eigenvalue sum %.9g != trace %.9g", trial, sum, Trace(a))
		}
	}
}

func TestSymEigenNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	SymEigen(Zeros(2, 3))
}

func TestEigenRange(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, 2, 0}, {0, 0, -1}})
	lo, hi := EigenRange(a)
	if math.Abs(lo+1) > 1e-10 || math.Abs(hi-5) > 1e-10 {
		t.Errorf("EigenRange = (%v,%v), want (-1,5)", lo, hi)
	}
	lo, hi = EigenRange(Zeros(0, 0))
	if lo != 0 || hi != 0 {
		t.Errorf("EigenRange(empty) = (%v,%v), want (0,0)", lo, hi)
	}
}

func TestConditionNumber(t *testing.T) {
	a := FromRows([][]float64{{100, 0}, {0, 1}})
	if got := ConditionNumber(a); math.Abs(got-100) > 1e-8 {
		t.Errorf("ConditionNumber = %v, want 100", got)
	}
	sing := FromRows([][]float64{{1, 0}, {0, 0}})
	if got := ConditionNumber(sing); !math.IsInf(got, 1) {
		t.Errorf("ConditionNumber(singular) = %v, want +Inf", got)
	}
}

func TestPowerIteration(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 4}}) // eigenvalues 5, 3
	lambda, v := PowerIteration(a, 500, 1e-12)
	if math.Abs(lambda-5) > 1e-8 {
		t.Errorf("dominant eigenvalue = %v, want 5", lambda)
	}
	// Residual ‖Av − λv‖ should vanish.
	av := MulVec(a, v)
	for i := range av {
		av[i] -= lambda * v[i]
	}
	if Norm2(av) > 1e-6 {
		t.Errorf("residual = %v", Norm2(av))
	}
}

func TestPowerIterationAgainstJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		a := randomSymmetric(rng, 5)
		// Power iteration converges to the eigenvalue of largest magnitude;
		// shift A to make it PSD so that is also the largest eigenvalue.
		shift := MaxAbs(a)*float64(a.Rows()) + 1
		for i := 0; i < a.Rows(); i++ {
			a.Set(i, i, a.At(i, i)+shift)
		}
		wantTop := SymEigen(a).Values[0]
		got, _ := PowerIteration(a, 2000, 1e-13)
		if math.Abs(got-wantTop) > 1e-5*(1+math.Abs(wantTop)) {
			t.Errorf("trial %d: power=%.10g jacobi=%.10g", trial, got, wantTop)
		}
	}
}

func TestPowerIterationEdgeCases(t *testing.T) {
	if l, v := PowerIteration(Zeros(0, 0), 10, 1e-9); l != 0 || v != nil {
		t.Errorf("empty matrix: got (%v,%v)", l, v)
	}
	l, _ := PowerIteration(Zeros(3, 3), 10, 1e-9)
	if l != 0 {
		t.Errorf("zero matrix: lambda = %v, want 0", l)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-square")
		}
	}()
	PowerIteration(Zeros(2, 3), 10, 1e-9)
}

// TestEigenRangeScratchMatchesEigenRange: the scratch variant applies the
// same Jacobi rotations (eigenvector accumulation does not feed back into
// the diagonalisation), so its extrema must be bit-identical, allocation
// aside.
func TestEigenRangeScratchMatchesEigenRange(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 2, 4, 7} {
		a := randomSymmetric(rng, n)
		w := Zeros(n, n)
		lo, hi := EigenRange(a)
		slo, shi := EigenRangeScratch(a, w)
		if slo != lo || shi != hi {
			t.Fatalf("n=%d: scratch (%.17g, %.17g) != (%.17g, %.17g)", n, slo, shi, lo, hi)
		}
	}
	// Rank-deficient Gram matrices (the fit's actual input class).
	g := Gram(NewDense(2, 4, []float64{1, 2, 3, 4, 2, 4, 6, 8}))
	w := Zeros(2, 2)
	lo, hi := EigenRange(g)
	slo, shi := EigenRangeScratch(g, w)
	if slo != lo || shi != hi {
		t.Fatalf("rank-deficient: scratch (%g, %g) != (%g, %g)", slo, shi, lo, hi)
	}
	if allocs := testing.AllocsPerRun(10, func() { EigenRangeScratch(g, w) }); allocs != 0 {
		t.Fatalf("EigenRangeScratch allocated %.0f times", allocs)
	}
}
