package bezier

import (
	"math/rand"
	"testing"
)

func benchCubic() *Curve {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 4)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return MustNew(pts)
}

func BenchmarkEvalDeCasteljau(b *testing.B) {
	c := benchCubic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eval(0.37)
	}
}

func BenchmarkStrictlyMonotone(b *testing.B) {
	c := Canonical2D(ShapeS)
	alpha := []float64{1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StrictlyMonotone(c, alpha)
	}
}

func BenchmarkSplit(b *testing.B) {
	c := benchCubic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(0.5)
	}
}
