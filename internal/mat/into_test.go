package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := Zeros(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// TestIntoVariantsMatchAllocating pins every *Into variant to its
// allocating counterpart: same values, shared-buffer reuse safe.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 4, 9)
	b := randDense(rng, 9, 5)
	c := randDense(rng, 4, 9)

	if got := MulInto(Zeros(4, 5), a, b); !got.Equal(Mul(a, b)) {
		t.Errorf("MulInto mismatch")
	}
	if got := MulABTInto(Zeros(4, 4), a, c); !got.Equal(Mul(a, T(c))) {
		t.Errorf("MulABTInto mismatch")
	}
	if got := GramInto(Zeros(4, 4), a); !got.Equal(Gram(a)) {
		t.Errorf("GramInto mismatch")
	}
	if got := SubInto(Zeros(4, 9), a, c); !got.Equal(Sub(a, c)) {
		t.Errorf("SubInto mismatch")
	}
	if got := SubScaledInto(Zeros(4, 9), a, 0.75, c); !got.Equal(Sub(a, Scale(0.75, c))) {
		t.Errorf("SubScaledInto mismatch")
	}

	d := []float64{1, 2, 3, 4, 5}
	m := Mul(a, b)
	want := MulDiagRight(m, d)
	MulDiagRightInPlace(m, d)
	if !m.Equal(want) {
		t.Errorf("MulDiagRightInPlace mismatch")
	}

	dst := make([]float64, a.Cols())
	ColNormsInto(dst, a)
	for j, v := range ColNorms(a) {
		if dst[j] != v {
			t.Errorf("ColNormsInto col %d: %v vs %v", j, dst[j], v)
		}
	}

	cp := Zeros(4, 9)
	cp.CopyFrom(a)
	if !cp.Equal(a) {
		t.Errorf("CopyFrom mismatch")
	}
}

// TestIntoVariantsReuseIsClean verifies a dirty destination is fully
// overwritten (MulInto must zero, not accumulate).
func TestIntoVariantsReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randDense(rng, 3, 6)
	b := randDense(rng, 6, 4)
	dst := randDense(rng, 3, 4) // garbage in
	if !MulInto(dst, a, b).Equal(Mul(a, b)) {
		t.Errorf("MulInto with dirty destination mismatch")
	}
	g := randDense(rng, 3, 3)
	if !GramInto(g, a).Equal(Gram(a)) {
		t.Errorf("GramInto with dirty destination mismatch")
	}
}

func TestIntoVariantsPanicOnAliasOrShape(t *testing.T) {
	a := Zeros(3, 3)
	b := Zeros(3, 3)
	for name, fn := range map[string]func(){
		"MulInto alias":    func() { MulInto(a, a, b) },
		"MulInto shape":    func() { MulInto(Zeros(2, 2), a, b) },
		"GramInto alias":   func() { GramInto(a, a) },
		"MulABTInto alias": func() { MulABTInto(b, a, b) },
		"SubInto shape":    func() { SubInto(Zeros(2, 3), a, b) },
		"ColNormsInto len": func() { ColNormsInto(make([]float64, 2), a) },
		"CopyFrom shape":   func() { a.CopyFrom(Zeros(2, 2)) },
		"MulDiagRight len": func() { MulDiagRightInPlace(a, []float64{1}) },
		"SubScaled shape":  func() { SubScaledInto(a, a, 1, Zeros(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// SubInto aliasing its own operand is documented as safe.
func TestSubIntoAliasSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 3, 3)
	b := randDense(rng, 3, 3)
	want := Sub(a, b)
	SubInto(a, a, b)
	if !a.Equal(want) {
		t.Errorf("SubInto(a, a, b) mismatch")
	}
}

// TestMulABTIntoMatchesMulT pins the fit's A·Bᵀ kernel to Mul(a, T(b)) bit
// for bit: both sum each output cell serially over the shared dimension in
// index order. The shapes run from single rows and columns to long shared
// dimensions.
func TestMulABTIntoMatchesMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{4, 4, 4}, {8, 8, 16}, {5, 7, 3}, {1, 1, 1}, {1, 9, 257},
		{3, 33, 3}, {4, 33, 3}, {7, 33, 4}, {64, 33, 3}, {13, 5, 100},
		{4, 5, 1}, {6, 4, 2}, {12, 3, 7},
		{4, 8, 5}, {5, 9, 6}, {8, 10, 7}, {9, 11, 4}, {4, 12, 9},
		{7, 13, 3}, {6, 14, 8}, {4, 15, 2}, {5, 16, 11}, {8, 23, 5},
		{3, 17, 4}, {1, 25, 6}, {64, 40, 4},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(t *testing.T) {
			a := randDense(rng, m, k)
			b := randDense(rng, n, k)
			want := Mul(a, T(b))
			got := MulABTInto(Zeros(m, n), a, b)
			for i := range want.data {
				if got.data[i] != want.data[i] {
					t.Fatalf("shape %v: element %d differs: %.17g vs %.17g",
						sh, i, got.data[i], want.data[i])
				}
			}
		})
	}
}

// TestMulABTIntoReuseIsClean verifies a dirty destination is fully
// overwritten: the fit reuses its X·MZᵀ buffer across iterations.
func TestMulABTIntoReuseIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := randDense(rng, 5, 39), randDense(rng, 4, 39)
	dst := randDense(rng, 5, 4) // garbage in
	if !MulABTInto(dst, a, b).Equal(Mul(a, T(b))) {
		t.Errorf("MulABTInto with dirty destination mismatch")
	}
}

// TestMulABTIntoPanics checks MulABTInto's shape and aliasing contract.
func TestMulABTIntoPanics(t *testing.T) {
	a := Zeros(2, 3)
	b := Zeros(4, 5)
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("dim mismatch", func() { MulABTInto(Zeros(2, 4), a, b) })
	assertPanics("bad dst", func() { MulABTInto(Zeros(3, 3), a, Zeros(4, 3)) })
	assertPanics("alias", func() {
		x := Zeros(4, 4)
		MulABTInto(x, x, Zeros(4, 4))
	})
}
