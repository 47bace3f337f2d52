package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rpcrank/internal/bezier"
	"rpcrank/internal/mat"
)

// monomialMatrix is the product form's monomial moment matrix
// Z[c][i] = scoreᵢᶜ ((k+1)×n), each power by repeated multiplication from
// 1; M·Z is the Bernstein basis bernsteinBasisInto fills directly.
func monomialMatrix(k int, scores []float64) *mat.Dense {
	Z := mat.Zeros(k+1, len(scores))
	for i, s := range scores {
		v := 1.0
		for r := 0; r <= k; r++ {
			Z.Set(r, i, v)
			v *= s
		}
	}
	return Z
}

// fixedZObjective evaluates ‖X − P·MZ‖²_F, the Eq. 24 objective with the
// score matrix held fixed, directly over the d×n product: the oracle the
// Gram-form ΔJ of the Richardson step is checked against.
func fixedZObjective(X, P, MZ *mat.Dense) float64 {
	PMZ := mat.MulInto(mat.Zeros(X.Rows(), X.Cols()), P, MZ)
	var s float64
	for j := 0; j < X.Rows(); j++ {
		for i := 0; i < X.Cols(); i++ {
			d := X.At(j, i) - PMZ.At(j, i)
			s += d * d
		}
	}
	return s
}

// TestBernsteinBasisMatchesProduct pins the direct basis fill to the
// product M·Z it replaces, bit for bit, for the straight-line cubic case
// and the generic loop, and checks the result is a Bernstein basis:
// non-negative on [0,1] and a partition of unity, both to rounding. The
// monomial form cancels near s = 1 — at s = 1−2⁻⁵³ the exact b₀ of a cubic
// is 2⁻¹⁵⁹ but 1 − 3s + 3s² − s³ rounds to −2⁻⁵³ — so non-negativity holds
// to the same 1e-14 as the partition of unity, not exactly.
func TestBernsteinBasisMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scores := []float64{0, 1, 0.5, 1e-300, math.Nextafter(1, 0)}
	for i := 0; i < 200; i++ {
		scores = append(scores, rng.Float64())
	}
	n := len(scores)
	for k := 1; k <= 5; k++ {
		M := bezier.BernsteinToMonomial(k)
		want := mat.MulInto(mat.Zeros(k+1, n), mat.FromRows(M), monomialMatrix(k, scores))
		mz := make([]float64, (k+1)*n)
		bernsteinBasisInto(mz, M, scores)
		for r := 0; r <= k; r++ {
			for i, s := range scores {
				if got := mz[r*n+i]; math.Float64bits(got) != math.Float64bits(want.At(r, i)) {
					t.Errorf("k=%d b_%d(%v) = %v, product form %v", k, r, s, got, want.At(r, i))
				}
			}
		}
		for i, s := range scores {
			var sum float64
			for r := 0; r <= k; r++ {
				b := mz[r*n+i]
				if b < -1e-14 {
					t.Errorf("k=%d b_%d(%v) = %v < 0", k, r, s, b)
				}
				sum += b
			}
			if math.Abs(sum-1) > 1e-14 {
				t.Errorf("k=%d Σ_r b_r(%v) = %v, want 1", k, s, sum)
			}
		}
	}
}

// richardsonCase is one random control-point problem: observations X
// (d×n), the basis MZ of random scores, A = (MZ)(MZ)ᵀ, B = X·MZᵀ, and a
// random control-point matrix P.
type richardsonCase struct {
	name           string
	X, MZ, A, B, P *mat.Dense
}

func richardsonCases(seed int64) []richardsonCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []richardsonCase
	for _, d := range []int{1, 2, 5, 8} {
		for k := 1; k <= 5; k++ {
			for _, n := range []int{5, 64, 393} {
				X := mat.Zeros(d, n)
				scores := make([]float64, n)
				for i := range scores {
					scores[i] = rng.Float64()
					for j := 0; j < d; j++ {
						X.Set(j, i, rng.Float64())
					}
				}
				mz := make([]float64, (k+1)*n)
				bernsteinBasisInto(mz, bezier.BernsteinToMonomial(k), scores)
				MZ := mat.NewDense(k+1, n, mz)
				P := mat.Zeros(d, k+1)
				for j := 0; j < d; j++ {
					for r := 0; r <= k; r++ {
						P.Set(j, r, rng.Float64())
					}
				}
				cases = append(cases, richardsonCase{
					name: fmt.Sprintf("d=%d/k=%d/n=%d", d, k, n),
					X:    X, MZ: MZ, P: P,
					A: mat.GramInto(mat.Zeros(k+1, k+1), MZ),
					B: mat.MulABTInto(mat.Zeros(d, k+1), X, MZ),
				})
			}
		}
	}
	return cases
}

// sameMatrix reports whether a and b have the same shape and elements.
func sameMatrix(a, b *mat.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// trial returns P − γ·G as a new matrix.
func trial(P *mat.Dense, gamma float64, G *mat.Dense) *mat.Dense {
	return mat.SubScaledInto(mat.Zeros(P.Rows(), P.Cols()), P, gamma, G)
}

// TestRichardsonDeltaJMatchesOracle checks the Gram-form objective change
// −2γ⟨R,G⟩ + γ²⟨G·A,G⟩ against ‖X − (P−γG)·MZ‖² − ‖X − P·MZ‖² formed
// over the full d×n product, at the nominal step and at 4× and 16× it.
func TestRichardsonDeltaJMatchesOracle(t *testing.T) {
	for _, c := range richardsonCases(1601) {
		rc := newRichardson(c.P.Rows(), c.P.Cols())
		g0 := rc.nominalGamma(c.A)
		if !(g0 > 0) {
			t.Fatalf("%s: nominal step %v, want > 0", c.name, g0)
		}
		rc.direction(c.P, c.A, c.B)
		J := fixedZObjective(c.X, c.P, c.MZ)
		for _, mult := range []float64{1, 4, 16} {
			gamma := mult * g0
			want := fixedZObjective(c.X, trial(c.P, gamma, rc.G), c.MZ) - J
			if got := rc.deltaJ(gamma); math.Abs(got-want) > 1e-10*(1+J) {
				t.Errorf("%s γ=%v×nominal: ΔJ %v, oracle %v (J %v)", c.name, mult, got, want, J)
			}
		}
	}
}

// TestRichardsonBacktrackHalves forces the trial step to 8× nominal, where
// the objective usually rises, and checks the safeguard halves until the
// oracle objective does not rise — and no further: the step one halving
// earlier must have raised it.
func TestRichardsonBacktrackHalves(t *testing.T) {
	halved := 0
	cases := richardsonCases(1602)
	for _, c := range cases {
		rc := newRichardson(c.P.Rows(), c.P.Cols())
		g8 := 8 * rc.nominalGamma(c.A)
		P0 := c.P.Clone()
		J := fixedZObjective(c.X, P0, c.MZ)
		tol := 1e-10 * (1 + J)
		gamma := rc.step(c.P, c.A, c.B, g8)
		if !(gamma > 0) {
			t.Errorf("%s: no step accepted", c.name)
			continue
		}
		if q := g8 / gamma; q != math.Exp2(math.Round(math.Log2(q))) {
			t.Errorf("%s: accepted γ %v is not 8×nominal (%v) halved", c.name, gamma, g8)
		}
		if !sameMatrix(c.P, trial(P0, gamma, rc.G)) {
			t.Errorf("%s: P is not P₀ − γ·G at the accepted γ", c.name)
		}
		if after := fixedZObjective(c.X, c.P, c.MZ); after-J > tol {
			t.Errorf("%s: objective rose %v → %v at accepted γ %v", c.name, J, after, gamma)
		}
		if gamma < g8 {
			halved++
			if up := fixedZObjective(c.X, trial(P0, 2*gamma, rc.G), c.MZ); up-J < -tol {
				t.Errorf("%s: γ %v was rejected though the objective fell %v → %v", c.name, 2*gamma, J, up)
			}
		}
	}
	t.Logf("the safeguard halved on %d of %d cases", halved, len(cases))
	if halved < len(cases)/2 {
		t.Errorf("the safeguard halved on %d of %d cases; the test needs it to run", halved, len(cases))
	}
}
