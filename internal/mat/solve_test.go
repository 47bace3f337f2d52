package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := FromRows([][]float64{{5}, {10}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3
	if math.Abs(x.At(0, 0)-1) > 1e-12 || math.Abs(x.At(1, 0)-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveMultipleRHS(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := Identity(2)
	inv, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(a, inv).EqualApprox(Identity(2), 1e-10) {
		t.Errorf("A·A⁻¹ != I:\n%v", Mul(a, inv))
	}
}

func TestSolveRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 10, 30} {
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant → well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := NewDense(n, 1, MulVec(a, want))
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, w := range want {
			if math.Abs(got.At(i, 0)-w) > 1e-8 {
				t.Fatalf("n=%d: x[%d]=%.12g want %.12g", n, i, got.At(i, 0), w)
			}
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	_, err := Solve(a, Identity(2))
	if !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolvePivoting(t *testing.T) {
	// Zero pivot at (0,0) requires row exchange.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, FromRows([][]float64{{2}, {3}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-3) > 1e-12 || math.Abs(x.At(1, 0)-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolvePanics(t *testing.T) {
	cases := []func(){
		func() { Solve(Zeros(2, 3), Zeros(2, 1)) },
		func() { Solve(Zeros(2, 2), Zeros(3, 1)) },
	}
	for i, fn := range cases {
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

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := FromRows([][]float64{{5}, {10}})
	ac, bc := a.Clone(), b.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(ac) || !b.Equal(bc) {
		t.Errorf("Solve mutated its inputs")
	}
}

// TestSolveIdentityRHSGivesInverse solves A·X = I, which yields A⁻¹.
func TestSolveIdentityRHSGivesInverse(t *testing.T) {
	inv, err := Solve(FromRows([][]float64{{4, 7}, {2, 6}}), Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := FromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}}); !inv.EqualApprox(want, 1e-12) {
		t.Errorf("Solve(A, I) =\n%vwant\n%v", inv, want)
	}
}
