package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseAndAccessors(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if r, c := m.Rows(), m.Cols(); r != 2 || c != 3 {
		t.Fatalf("Rows, Cols = (%d,%d), want (2,3)", r, c)
	}
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	m.Set(0, 1, 9)
	if got := m.At(0, 1); got != 9 {
		t.Errorf("after Set, At(0,1) = %v, want 9", got)
	}
}

func TestNewDensePanics(t *testing.T) {
	cases := []func(){
		func() { NewDense(-1, 2, nil) },
		func() { NewDense(2, 2, []float64{1}) },
		func() { Zeros(2, 2).At(2, 0) },
		func() { Zeros(2, 2).At(0, -1) },
		func() { Zeros(2, 2).Set(5, 5, 1) },
		func() { FromRows([][]float64{{1, 2}, {3}}) },
		func() { Zeros(2, 2).Row(3) },
		func() { Zeros(2, 2).Col(3) },
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

func TestFromRows(t *testing.T) {
	r := FromRows([][]float64{{1, 2}, {3, 4}})
	if want := NewDense(2, 2, []float64{1, 2, 3, 4}); !r.Equal(want) {
		t.Errorf("FromRows =\n%vwant\n%v", r, want)
	}
	if !FromRows(nil).Equal(Zeros(0, 0)) {
		t.Errorf("FromRows(nil) should be empty")
	}
}

func TestRowColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	row := m.Row(0)
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Errorf("Row must return a copy")
	}
	col := m.Col(1)
	col[0] = 99
	if m.At(0, 1) != 2 {
		t.Errorf("Col must return a copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone must not share storage")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("Identity(3).At(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestEqualApprox(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.0000001, 2}})
	if !a.EqualApprox(b, 1e-5) {
		t.Errorf("EqualApprox should accept within tol")
	}
	if a.EqualApprox(b, 1e-9) {
		t.Errorf("EqualApprox should reject beyond tol")
	}
	if a.EqualApprox(Zeros(2, 2), 1) {
		t.Errorf("EqualApprox must reject dimension mismatch")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.EqualApprox(want, 1e-12) {
		t.Errorf("Mul =\n%vwant\n%v", got, want)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(vals [9]float64) bool {
		m := NewDense(3, 3, append([]float64{}, vals[:]...))
		return Mul(m, Identity(3)).EqualApprox(m, 1e-12) &&
			Mul(Identity(3), m).EqualApprox(m, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := T(a)
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.Equal(want) {
		t.Errorf("T =\n%vwant\n%v", got, want)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		m := NewDense(2, 3, append([]float64{}, vals[:]...))
		return T(T(m)).Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 5}})
	if got := Sub(b, a); !got.Equal(FromRows([][]float64{{2, 3}})) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(2, a); !got.Equal(FromRows([][]float64{{2, 4}})) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	a := Zeros(2, 2)
	b := Zeros(3, 3)
	cases := []func(){
		func() { Mul(a, Zeros(3, 2)) },
		func() { MulVec(a, []float64{1}) },
		func() { Sub(a, b) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { MulDiagRight(a, []float64{1}) },
		func() { Trace(Zeros(2, 3)) },
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

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if got := FrobeniusNorm(m); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
	if got := MaxAbs(FromRows([][]float64{{-7, 2}})); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestColNorms(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {4, 2}})
	got := ColNorms(m)
	if math.Abs(got[0]-5) > 1e-12 || math.Abs(got[1]-2) > 1e-12 {
		t.Errorf("ColNorms = %v, want [5 2]", got)
	}
}

func TestMulDiagRight(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulDiagRight(m, []float64{10, 100})
	want := FromRows([][]float64{{10, 200}, {30, 400}})
	if !got.Equal(want) {
		t.Errorf("MulDiagRight =\n%vwant\n%v", got, want)
	}
}

func TestTraceAndGram(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Trace(m); got != 5 {
		t.Errorf("Trace = %v, want 5", got)
	}
	g := Gram(m) // rows: [1,2],[3,4] → [[5,11],[11,25]]
	want := FromRows([][]float64{{5, 11}, {11, 25}})
	if !g.EqualApprox(want, 1e-12) {
		t.Errorf("Gram =\n%vwant\n%v", g, want)
	}
}

func TestGramSymmetryProperty(t *testing.T) {
	f := func(vals [8]float64) bool {
		m := NewDense(2, 4, append([]float64{}, vals[:]...))
		g := Gram(m)
		return g.EqualApprox(T(g), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringSmoke(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Errorf("String should render something")
	}
}
