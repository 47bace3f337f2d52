package mat

import (
	"math/rand"
	"testing"
)

func benchMatrix(n int) *Dense {
	rng := rand.New(rand.NewSource(int64(n)))
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func BenchmarkMul16(b *testing.B) {
	m := benchMatrix(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(m, m)
	}
}

func BenchmarkMul64(b *testing.B) {
	m := benchMatrix(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(m, m)
	}
}

func BenchmarkSymEigen4(b *testing.B) {
	// The 4×4 Bernstein Gram case the RPC solves every iteration.
	m := benchMatrix(4)
	sym := Mul(m, T(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymEigen(sym)
	}
}

func BenchmarkSymEigen32(b *testing.B) {
	m := benchMatrix(32)
	sym := Mul(m, T(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymEigen(sym)
	}
}

func BenchmarkSolve16(b *testing.B) {
	m := benchMatrix(16)
	for i := 0; i < 16; i++ {
		m.Set(i, i, m.At(i, i)+16)
	}
	rhs := Zeros(16, 1)
	for i := 0; i < 16; i++ {
		rhs.Set(i, 0, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerIteration32(b *testing.B) {
	m := benchMatrix(32)
	sym := Mul(m, T(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PowerIteration(sym, 500, 1e-10)
	}
}
